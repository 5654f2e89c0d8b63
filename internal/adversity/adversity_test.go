package adversity

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	scfg := synth.TestConfig()
	scfg.Users = 900
	scfg.Days = 2
	tr, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testConfig(strategy string, parallelism int) core.Config {
	return core.Config{
		Topology:     hfc.Config{NeighborhoodSize: 300, PerPeerStorage: 2 * units.GB},
		StrategyName: strategy,
		Parallelism:  parallelism,
	}
}

func testTopology(t *testing.T, tr *trace.Trace) *hfc.Topology {
	t.Helper()
	topo, err := hfc.Build(testConfig("lfu", 1).Topology, tr.Users())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// splitWindows chunks a sorted record sequence into fixed-duration
// submission windows, the way a live driver feeds the engine.
func splitWindows(recs []trace.Record, win time.Duration) [][]trace.Record {
	var out [][]trace.Record
	start := 0
	next := win
	for i, r := range recs {
		for r.Start >= next {
			out = append(out, recs[start:i])
			start = i
			next += win
		}
	}
	return append(out, recs[start:])
}

func TestFaultValidation(t *testing.T) {
	bad := []Fault{
		NodeFailure{At: -time.Hour, Fraction: 0.5},
		NodeFailure{Fraction: 0},
		NodeFailure{Fraction: 1.5},
		NodeFailure{Fraction: 0.5, RampHours: -1},
		NodeFailure{At: 2 * time.Hour, Fraction: 0.5, RestoreAt: time.Hour},
		NodeFailure{Fraction: 0.5, Neighborhood: -2},
		ColdRestart{At: -time.Second},
		CoaxDegrade{Factor: 0},
		CoaxDegrade{Factor: 1},
		CoaxDegrade{At: 3 * time.Hour, Factor: 0.5, RestoreAt: 3 * time.Hour},
		HeteroCache{Min: 2 * units.GB, Max: units.GB},
		HeteroCache{Min: -1},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("fault %d (%T) validated", i, f)
		}
	}
	good := []Fault{
		NodeFailure{Fraction: 0.25, RampHours: 4, Seed: 7},
		ColdRestart{At: time.Hour, Neighborhood: -1},
		CoaxDegrade{At: time.Hour, Factor: 0.5, RestoreAt: 2 * time.Hour},
		HeteroCache{Min: units.GB, Max: 4 * units.GB},
	}
	for i, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("fault %d (%T): %v", i, f, err)
		}
	}
}

// TestDisruptRejectsBadFault: System.Disrupt refuses a nil fault, one
// naming a neighborhood the plant lacks, and every fault that fails
// Validate, each but the nil one naming its kind, and schedules nothing. Before Disruptions
// validated, the hetero spread panicked in its draw, the negative
// fraction failed one box per neighborhood, and the restore before the
// failure left the boxes down for good.
func TestDisruptRejectsBadFault(t *testing.T) {
	sys, err := core.NewSystem(testConfig("lfu", 1), core.WorkloadFromTrace(testTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{nil, ColdRestart{Neighborhood: sys.Topology().NeighborhoodCount()},
		NodeFailure{Fraction: 2}, NodeFailure{Fraction: -1}, NodeFailure{Fraction: 0.5, At: 5 * time.Hour, RestoreAt: time.Hour},
		ColdRestart{At: -time.Second}, CoaxDegrade{Factor: 1}, HeteroCache{Neighborhood: -1, Min: 2 * units.GB, Max: units.GB}} {
		if err := sys.Disrupt(f); err == nil || f != nil && !strings.Contains(err.Error(), f.Kind()) {
			t.Errorf("%#v: err = %v, want a refusal naming the fault", f, err)
		}
	}
	st, err := sys.ExportState()
	if err != nil || len(st.Disruptions) != 0 {
		t.Fatalf("rejected faults left a schedule (%v)", err)
	}
}

func TestNodeFailureCompilation(t *testing.T) {
	tr := testTrace(t)
	topo := testTopology(t, tr)
	cfg := testConfig("lfu", 1)
	f := NodeFailure{At: 24 * time.Hour, Neighborhood: 0, Fraction: 0.25, RampHours: 3, RestoreAt: 40 * time.Hour, Seed: 11}

	ds, err := f.Disruptions(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("got %d disruptions, want 3 ramp steps + restore", len(ds))
	}
	n := topo.Neighborhoods()[0].Size()
	wantFailed := int(float64(n)*0.25 + 0.5)
	prevDown := 0
	for step, d := range ds[:3] {
		if d.Kind != core.DisruptPeerCapacities || d.Neighborhood != 0 {
			t.Fatalf("step %d: %+v", step, d)
		}
		if want := f.At + time.Duration(step)*time.Hour; d.At != want {
			t.Fatalf("step %d at %v, want %v", step, d.At, want)
		}
		down := 0
		for _, c := range d.PeerCapacities {
			if c == 0 {
				down++
			}
		}
		if down < prevDown {
			t.Fatalf("step %d fails %d boxes after %d — ramp went backwards", step, down, prevDown)
		}
		prevDown = down
	}
	if prevDown != wantFailed {
		t.Fatalf("final step fails %d boxes, want %d", prevDown, wantFailed)
	}
	restore := ds[3]
	if restore.At != f.RestoreAt {
		t.Fatalf("restore at %v, want %v", restore.At, f.RestoreAt)
	}
	for i, c := range restore.PeerCapacities {
		if c != 2*units.GB {
			t.Fatalf("restore box %d capacity %v", i, c)
		}
	}

	// Same parameters replay the exact same outage; a different seed
	// fails a different set of boxes.
	again, err := f.Disruptions(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, again) {
		t.Fatal("recompilation differs")
	}
	f.Seed = 12
	other, err := f.Disruptions(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ds[2].PeerCapacities, other[2].PeerCapacities) {
		t.Fatal("different seeds failed the same boxes")
	}
}

func TestCoaxDegradeCompilation(t *testing.T) {
	tr := testTrace(t)
	topo := testTopology(t, tr)
	cfg := testConfig("lfu", 1)
	base := topo.Config().CoaxCapacity
	f := CoaxDegrade{At: 10 * time.Hour, Neighborhood: -1, Factor: 0.5, RestoreAt: 20 * time.Hour}
	ds, err := f.Disruptions(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("got %d disruptions", len(ds))
	}
	if ds[0].Kind != core.DisruptCoaxCapacity || ds[0].CoaxCapacity != units.BitRate(float64(base)*0.5) {
		t.Fatalf("degrade: %+v", ds[0])
	}
	if ds[1].CoaxCapacity != base || ds[1].At != f.RestoreAt {
		t.Fatalf("restore: %+v", ds[1])
	}
}

func TestHeteroCacheCompilation(t *testing.T) {
	tr := testTrace(t)
	topo := testTopology(t, tr)
	cfg := testConfig("lfu", 1)
	f := HeteroCache{Neighborhood: -1, Min: units.GB, Max: 4 * units.GB, Seed: 3}
	ds, err := f.Disruptions(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != topo.NeighborhoodCount() {
		t.Fatalf("got %d disruptions for %d neighborhoods", len(ds), topo.NeighborhoodCount())
	}
	varied := false
	for _, d := range ds {
		for _, c := range d.PeerCapacities {
			if c < f.Min || c > f.Max {
				t.Fatalf("capacity %v outside [%v, %v]", c, f.Min, f.Max)
			}
			if c != d.PeerCapacities[0] {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("hetero fleet came out uniform")
	}
	again, _ := f.Disruptions(topo, cfg)
	if !reflect.DeepEqual(ds, again) {
		t.Fatal("recompilation differs")
	}

	flat := HeteroCache{Min: 2 * units.GB, Max: 2 * units.GB}
	fds, err := flat.Disruptions(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fds {
		for _, c := range d.PeerCapacities {
			if c != 2*units.GB {
				t.Fatalf("zero-span draw %v", c)
			}
		}
	}
}

// TestFaultsEndToEnd drives a full run through a mid-trace outage plus a
// coax degrade and checks the adversity path keeps the determinism
// contract: identical results at parallelism 1 and 4.
func TestFaultsEndToEnd(t *testing.T) {
	tr := testTrace(t)
	faults := []Fault{
		NodeFailure{At: 18 * time.Hour, Neighborhood: -1, Fraction: 0.3, RampHours: 2, Seed: 5},
		CoaxDegrade{At: 20 * time.Hour, Neighborhood: -1, Factor: 0.6, RestoreAt: 30 * time.Hour},
		ColdRestart{At: 36 * time.Hour, Neighborhood: 0},
	}
	run := func(parallelism int) *core.Result {
		sys, err := core.NewSystem(testConfig("lfu", parallelism), core.WorkloadFromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			if err := sys.Disrupt(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.SubmitBatch(tr.Records); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Close()
		if err != nil {
			t.Fatal(err)
		}
		res.Config.Parallelism = 0
		return res
	}
	r1 := run(1)
	if r1.Counters.Evictions == 0 {
		t.Fatal("outage evicted nothing — fault injection is vacuous")
	}
	r4 := run(4)
	if !reflect.DeepEqual(r1, r4) {
		t.Fatal("adversity run diverges across parallelism")
	}
}

func TestRunForksValidation(t *testing.T) {
	if _, err := RunForks(nil, []string{"lfu"}, nil, ForkOptions{}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	st := &core.SystemState{}
	if _, err := RunForks(st, nil, nil, ForkOptions{}); err == nil {
		t.Fatal("empty strategy list accepted")
	}
	if _, err := RunForks(st, []string{"lfu", "lfu"}, nil, ForkOptions{}); err == nil {
		t.Fatal("duplicate strategy accepted")
	}
	if _, err := RunForks(st, []string{""}, nil, ForkOptions{}); err == nil {
		t.Fatal("empty strategy name accepted")
	}
}

// TestRunForks warms one system through a looming outage, snapshots, and
// races three strategies through the incident. The report must carry one
// arm per strategy, measure only the post-fork window, and come out
// identical on a rerun.
func TestRunForks(t *testing.T) {
	tr := testTrace(t)
	windows := splitWindows(tr.Records, 6*time.Hour)
	cut := len(windows) / 2

	sys, err := core.NewSystem(testConfig("lfu", 2), core.WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Disrupt(NodeFailure{At: 30 * time.Hour, Neighborhood: -1, Fraction: 0.5, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	var tail []trace.Record
	for i, w := range windows {
		if i >= cut {
			tail = append(tail, w...)
			continue
		}
		if err := sys.SubmitBatch(w); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	strategies := []string{"lfu", "lru", "gdsf"}
	report, err := RunForks(st, strategies, tail, ForkOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.At != st.At() {
		t.Fatalf("report at %v, snapshot at %v", report.At, st.At())
	}
	if !reflect.DeepEqual(report.Strategies(), strategies) {
		t.Fatalf("arms %v, want %v", report.Strategies(), strategies)
	}
	base := st.TotalCounters()
	for _, arm := range report.Arms {
		if arm.Result == nil {
			t.Fatalf("arm %q has no result", arm.Strategy)
		}
		if arm.HitRatio < 0 || arm.HitRatio > 1 {
			t.Fatalf("arm %q hit ratio %v", arm.Strategy, arm.HitRatio)
		}
		if arm.Result.Counters.SegmentRequests <= base.SegmentRequests {
			t.Fatalf("arm %q served nothing after the fork", arm.Strategy)
		}
		if arm.Result.Counters.Evictions == 0 {
			t.Fatalf("arm %q rode out the outage without evictions", arm.Strategy)
		}
	}
	if report.BestArm() == nil {
		t.Fatal("no best arm")
	}

	table := report.Table()
	for _, s := range strategies {
		if !strings.Contains(table, s) {
			t.Fatalf("table misses %q:\n%s", s, table)
		}
	}
	if !strings.Contains(table, "STRATEGY") || !strings.Contains(table, "COAX P95") {
		t.Fatalf("table misses header:\n%s", table)
	}

	// A second identical race must reproduce the first bit for bit, and
	// the lfu arm must match the original system simply continuing.
	again, err := RunForks(st, strategies, tail, ForkOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report, again) {
		t.Fatal("fork race is not deterministic")
	}
	if err := sys.SubmitBatch(tail); err != nil {
		t.Fatal(err)
	}
	contRes, err := sys.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.Arms[0].Result, contRes) {
		t.Fatal("lfu arm differs from the uninterrupted continuation")
	}
}
