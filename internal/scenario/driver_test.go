package scenario

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/units"
)

// coverageSpec is a flash-crowd scenario tuned so every subscriber
// appears in the stream (flat activity, several sessions per user-day),
// which lets the driver be compared against a batch Run whose workload
// is derived from the materialized trace.
func coverageSpec() Spec {
	base := testBase()
	base.Users = 150
	base.Days = 2
	base.SessionsPerUserDay = 4
	base.UserActivitySigma = 0
	return Spec{
		Name: "test-flash-coverage",
		Base: base,
		Phases: []Phase{
			{Name: "flash", From: 1 * units.Day, To: 2 * units.Day, Modulators: []Modulator{
				FlashCrowd{Program: 0, Factor: 40, RateBoost: 1.3},
			}},
		},
	}
}

func driverConfig(parallelism int) core.Config {
	return core.Config{
		Topology:    testTopo(),
		Strategy:    core.StrategyLFU,
		WarmupDays:  0,
		Parallelism: parallelism,
	}
}

// normalize strips the one intentionally parallelism-dependent Result
// field.
func normalize(res *core.Result) *core.Result {
	res.Config.Parallelism = 0
	return res
}

// TestDriverMatchesBatchRun is the scenario equivalence suite: a
// flash-crowd scenario streamed through the live Driver — at
// parallelism 1 and GOMAXPROCS, at hour- and day-sized chunks — must
// produce a final Result identical to the same records pre-materialized
// and fed through the batch Run.
func TestDriverMatchesBatchRun(t *testing.T) {
	spec := coverageSpec()
	tr, err := Materialize(spec, testTopo())
	if err != nil {
		t.Fatal(err)
	}
	// The batch Run derives its population from the trace; the driver
	// provisions the scenario population. The spec is tuned so they
	// coincide — guard that before comparing.
	if got, want := len(tr.Users()), len(spec.Population()); got != want {
		t.Fatalf("coverage spec drifted: %d of %d subscribers appear in the trace", got, want)
	}

	want, err := core.Run(driverConfig(1), tr)
	if err != nil {
		t.Fatal(err)
	}
	normalize(want)

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, chunk := range []time.Duration{time.Hour, 24 * time.Hour} {
			d, err := NewDriver(driverConfig(par), spec, Options{Chunk: chunk})
			if err != nil {
				t.Fatalf("par %d chunk %v: %v", par, chunk, err)
			}
			got, err := d.Run()
			if err != nil {
				t.Fatalf("par %d chunk %v: %v", par, chunk, err)
			}
			if !reflect.DeepEqual(normalize(got), want) {
				t.Errorf("par %d chunk %v: driver result differs from batch Run\nbatch:  %+v\ndriver: %+v",
					par, chunk, want, got)
			}
		}
	}
}

// TestDriverCheckpoints: periodic checkpoints arrive on schedule,
// labelled with the active phase, monotonically growing, and matching
// the observer callback.
func TestDriverCheckpoints(t *testing.T) {
	spec := coverageSpec()
	var observed []Checkpoint
	d, err := NewDriver(driverConfig(1), spec, Options{
		Chunk:        6 * time.Hour,
		Checkpoint:   12 * time.Hour,
		OnCheckpoint: func(cp Checkpoint) error { observed = append(observed, cp); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	cps := d.Checkpoints()
	if len(cps) != 4 { // 2 days / 12 h
		t.Fatalf("got %d checkpoints, want 4: %+v", len(cps), cps)
	}
	if !reflect.DeepEqual(observed, cps) {
		t.Error("observer saw different checkpoints than the collected series")
	}
	for i, cp := range cps {
		if want := time.Duration(i+1) * 12 * time.Hour; cp.At != want {
			t.Errorf("checkpoint %d at %v, want %v", i, cp.At, want)
		}
		if cp.Metrics.Now > cp.At {
			t.Errorf("checkpoint %d metrics at %v, past the checkpoint instant %v", i, cp.Metrics.Now, cp.At)
		}
		if i > 0 && cp.Metrics.Counters.Sessions <= cps[i-1].Metrics.Counters.Sessions {
			t.Errorf("checkpoint %d sessions did not grow", i)
		}
	}
	// Day 2 is the flash phase; its checkpoints carry the label.
	if cps[0].Phases != "" || cps[1].Phases != "" {
		t.Errorf("day-1 checkpoints labelled %q/%q, want unlabelled", cps[0].Phases, cps[1].Phases)
	}
	if cps[2].Phases != "flash" || cps[3].Phases != "flash" {
		t.Errorf("day-2 checkpoints labelled %q/%q, want flash", cps[2].Phases, cps[3].Phases)
	}
	if uint64(res.Counters.Sessions) < cps[3].Metrics.Counters.Sessions {
		t.Error("final result lost sessions against the last checkpoint")
	}
}

// TestDriverAcceleration: with a fake clock, the driver sleeps exactly
// enough to hold virtual time at the acceleration factor, and an
// unthrottled driver never sleeps.
func TestDriverAcceleration(t *testing.T) {
	spec := coverageSpec()
	var wall time.Time
	var slept time.Duration
	d, err := NewDriver(driverConfig(1), spec, Options{
		Chunk:        24 * time.Hour,
		Acceleration: 24 * 3600, // one simulated day per wall second
	})
	if err != nil {
		t.Fatal(err)
	}
	d.opts.now = func() time.Time { return wall }
	d.opts.sleep = func(dt time.Duration) { slept += dt; wall = wall.Add(dt) }
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	// Two simulated days at one day per second = 2 s of wall throttling
	// (processing time is zero on the frozen fake clock).
	if slept != 2*time.Second {
		t.Errorf("throttled driver slept %v, want 2s", slept)
	}

	slept = 0
	d2, err := NewDriver(driverConfig(1), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d2.opts.now = func() time.Time { return wall }
	d2.opts.sleep = func(dt time.Duration) { slept += dt }
	if _, err := d2.Run(); err != nil {
		t.Fatal(err)
	}
	if slept != 0 {
		t.Errorf("unthrottled driver slept %v", slept)
	}
}

// TestDriverOptionValidation: broken options are rejected before any
// engine is built.
func TestDriverOptionValidation(t *testing.T) {
	cases := []Options{
		{Acceleration: -1},
		{Chunk: -time.Hour},
		{Checkpoint: -time.Minute},
	}
	for i, opts := range cases {
		if _, err := NewDriver(driverConfig(1), coverageSpec(), opts); err == nil {
			t.Errorf("case %d (%+v): expected error", i, opts)
		}
	}
	// Invalid spec and invalid engine config are rejected too.
	bad := coverageSpec()
	bad.Phases[0].To = bad.Phases[0].From
	if _, err := NewDriver(driverConfig(1), bad, Options{}); err == nil {
		t.Error("expected error for invalid spec")
	}
	if _, err := NewDriver(driverConfig(-1), coverageSpec(), Options{}); err == nil {
		t.Error("expected error for negative engine parallelism")
	}
	// Offline strategies have no future in a live scenario.
	cfg := driverConfig(1)
	cfg.Strategy = core.StrategyOracle
	if _, err := NewDriver(cfg, coverageSpec(), Options{}); err == nil {
		t.Error("expected error for oracle strategy on a live scenario")
	}
}

// TestRegionalScenarioSingleNeighborhood: a region-targeted scenario
// on a plant with one neighborhood must run (regional modulation
// collapses to a systemwide program hook), not trip the synth region
// validation.
func TestRegionalScenarioSingleNeighborhood(t *testing.T) {
	base := testBase()
	spec := Spec{
		Name: "one-region",
		Base: base,
		Phases: []Phase{
			{Name: "drift", From: 0, To: 3 * units.Day, Modulators: []Modulator{
				SkewDrift{Strength: 0.8},
				FlashCrowd{Program: 0, Factor: 20, Local: true, Neighborhood: 0},
			}},
		},
	}
	cfg := driverConfig(1)
	cfg.Topology.NeighborhoodSize = 1000 // 300 users -> one neighborhood
	d, err := NewDriver(cfg, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Neighborhoods != 1 || res.Counters.Sessions == 0 {
		t.Errorf("single-neighborhood regional run wrong: %d neighborhoods, %d sessions",
			res.Neighborhoods, res.Counters.Sessions)
	}
}

// TestDriverRunOnce: a driver cannot be run twice.
func TestDriverRunOnce(t *testing.T) {
	d, err := NewDriver(driverConfig(1), coverageSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Error("expected error on second Run")
	}
}

// TestDriverParallelShards exercises the concurrent engine path under
// the race detector: a regional scenario on a 4-worker pool must match
// the serial run.
func TestDriverParallelShards(t *testing.T) {
	base := testBase()
	spec := Spec{
		Name: "regional",
		Base: base,
		Phases: []Phase{
			{Name: "local-flash", From: 1 * units.Day, To: 2 * units.Day, Modulators: []Modulator{
				FlashCrowd{Program: 0, Factor: 30, RateBoost: 1.5, Local: true, Neighborhood: 1},
				SkewDrift{Strength: 0.6},
			}},
		},
	}
	var results []*core.Result
	for _, par := range []int{1, 4} {
		d, err := NewDriver(driverConfig(par), spec, Options{Chunk: 6 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, normalize(res))
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("regional scenario differs between serial and 4-worker pools")
	}
	if results[0].Counters.Sessions == 0 {
		t.Error("regional scenario generated no sessions")
	}
}
