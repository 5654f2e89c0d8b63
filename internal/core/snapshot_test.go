package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// splitWindows chunks a sorted record sequence into fixed-duration
// submission windows (possibly empty), the way a live driver feeds the
// engine.
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

func snapshotTestTrace(t *testing.T) *trace.Trace {
	t.Helper()
	scfg := synth.TestConfig()
	scfg.Users = 900
	scfg.Days = 3
	tr, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func snapshotTestConfig(strategy string, parallelism int) Config {
	return Config{
		Topology:     hfc.Config{NeighborhoodSize: 300, PerPeerStorage: 2 * units.GB},
		StrategyName: strategy,
		Parallelism:  parallelism,
	}
}

// TestSnapshotRestoreEquivalence is the snapshot determinism contract:
// save mid-run, restore, continue — every subsequent checkpoint and the
// final result are identical to the uninterrupted run, including across
// a change of parallelism and a full serialize/deserialize cycle.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	tr := snapshotTestTrace(t)
	windows := splitWindows(tr.Records, 6*time.Hour)
	cut := len(windows) / 2

	parallelisms := []struct {
		name          string
		before, after int
	}{
		{"p1-to-p4", 1, 4},
		{"p4-to-p1", 4, 1},
		{"pmax-to-pmax", runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0)},
	}
	for _, strategy := range []string{"lfu", "oracle", "lru-2", "gdsf", "prefix-lfu"} {
		for _, pc := range parallelisms {
			t.Run(fmt.Sprintf("%s/%s", strategy, pc.name), func(t *testing.T) {
				// Uninterrupted baseline at the pre-cut parallelism.
				base, err := NewSystem(snapshotTestConfig(strategy, pc.before), WorkloadFromTrace(tr))
				if err != nil {
					t.Fatal(err)
				}
				var baseCPs []Metrics
				for _, w := range windows {
					if err := base.SubmitBatch(w); err != nil {
						t.Fatal(err)
					}
					baseCPs = append(baseCPs, base.Snapshot())
				}
				baseRes, err := base.Close()
				if err != nil {
					t.Fatal(err)
				}

				// Interrupted run: snapshot at the cut, round-trip the
				// state through the wire format, restore at the post-cut
				// parallelism, continue.
				sys, err := NewSystem(snapshotTestConfig(strategy, pc.before), WorkloadFromTrace(tr))
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range windows[:cut] {
					if err := sys.SubmitBatch(w); err != nil {
						t.Fatal(err)
					}
				}
				st, err := sys.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteState(&buf, st); err != nil {
					t.Fatal(err)
				}
				st2, _, err := ReadState(&buf)
				if err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreSystem(st2, RestoreOptions{Parallelism: pc.after})
				if err != nil {
					t.Fatal(err)
				}
				var restCPs []Metrics
				for _, w := range windows[cut:] {
					if err := restored.SubmitBatch(w); err != nil {
						t.Fatal(err)
					}
					restCPs = append(restCPs, restored.Snapshot())
				}
				restRes, err := restored.Close()
				if err != nil {
					t.Fatal(err)
				}

				for i, cp := range restCPs {
					if !reflect.DeepEqual(baseCPs[cut+i], cp) {
						t.Fatalf("checkpoint %d diverged after restore:\nbase:     %+v\nrestored: %+v", cut+i, baseCPs[cut+i], cp)
					}
				}
				if got, want := normalizeResult(restRes), normalizeResult(baseRes); !reflect.DeepEqual(got, want) {
					t.Fatalf("final result diverged after restore:\nbase:     %+v\nrestored: %+v", want, got)
				}
			})
		}
	}
}

// TestSnapshotRestoreWithDisruptions checks that pending disruptions
// survive a snapshot/restore cycle: a schedule armed before the cut
// fires identically in the restored run and in the uninterrupted one,
// at every parallelism.
func TestSnapshotRestoreWithDisruptions(t *testing.T) {
	tr := snapshotTestTrace(t)
	windows := splitWindows(tr.Records, 6*time.Hour)
	cut := len(windows) / 2

	// Neighborhood sizes come from the built plant (the last one may be
	// partial), so probe the topology before writing the schedule.
	probe, err := hfc.Build(snapshotTestConfig("lfu", 1).Topology, tr.Users())
	if err != nil {
		t.Fatal(err)
	}
	schedule := []Disruption{
		{At: 50 * time.Hour, Kind: DisruptColdRestart, Neighborhood: 0},
		{At: 60 * time.Hour, Kind: DisruptCoaxCapacity, Neighborhood: -1, CoaxCapacity: hfc.DefaultCoaxCapacity / 2},
	}
	for _, nb := range probe.Neighborhoods() {
		caps := make([]units.ByteSize, len(nb.Peers()))
		for i := range caps {
			caps[i] = 2 * units.GB
		}
		for i := 0; i < len(caps)/4; i++ {
			caps[i] = 0 // a quarter of the fleet fails
		}
		schedule = append(schedule, Disruption{
			At: 30 * time.Hour, Kind: DisruptPeerCapacities, Neighborhood: nb.ID(), PeerCapacities: caps,
		})
	}

	run := func(parallelism int, interrupt bool) (*Result, []Metrics) {
		t.Helper()
		sys, err := NewSystem(snapshotTestConfig("lfu", parallelism), WorkloadFromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.ScheduleDisruptions(schedule); err != nil {
			t.Fatal(err)
		}
		var cps []Metrics
		for i, w := range windows {
			if err := sys.SubmitBatch(w); err != nil {
				t.Fatal(err)
			}
			cps = append(cps, sys.Snapshot())
			if interrupt && i == cut-1 {
				st, err := sys.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				sys, err = RestoreSystem(st, RestoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := sys.Close()
		if err != nil {
			t.Fatal(err)
		}
		return res, cps
	}

	baseRes, baseCPs := run(1, false)
	if baseRes.Counters.Evictions == 0 {
		t.Fatal("disruption schedule caused no evictions; test is vacuous")
	}
	for _, parallelism := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, interrupt := range []bool{false, true} {
			res, cps := run(parallelism, interrupt)
			if !reflect.DeepEqual(normalizeResult(res), normalizeResult(baseRes)) {
				t.Fatalf("p=%d interrupt=%v: result diverged:\nbase: %+v\ngot:  %+v", parallelism, interrupt, baseRes, res)
			}
			for i := range cps {
				if !reflect.DeepEqual(baseCPs[i], cps[i]) {
					t.Fatalf("p=%d interrupt=%v: checkpoint %d diverged", parallelism, interrupt, i)
				}
			}
		}
	}
}

// TestForkEquivalence checks that forks share no mutable state: n forks
// driven concurrently produce results identical to each other, to the
// original continuing alone, and to an uninterrupted run. Run under
// -race this also proves fork independence mechanically.
func TestForkEquivalence(t *testing.T) {
	tr := snapshotTestTrace(t)
	windows := splitWindows(tr.Records, 6*time.Hour)
	cut := len(windows) / 2

	finish := func(sys *System) (*Result, error) {
		for _, w := range windows[cut:] {
			if err := sys.SubmitBatch(w); err != nil {
				return nil, err
			}
		}
		return sys.Close()
	}

	for _, parallelism := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("p%d", parallelism), func(t *testing.T) {
			base, err := NewSystem(snapshotTestConfig("lfu", parallelism), WorkloadFromTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				if err := base.SubmitBatch(w); err != nil {
					t.Fatal(err)
				}
			}
			baseRes, err := base.Close()
			if err != nil {
				t.Fatal(err)
			}

			sys, err := NewSystem(snapshotTestConfig("lfu", parallelism), WorkloadFromTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows[:cut] {
				if err := sys.SubmitBatch(w); err != nil {
					t.Fatal(err)
				}
			}
			forks, err := sys.Fork(3)
			if err != nil {
				t.Fatal(err)
			}

			// The original and every fork finish the run concurrently.
			runs := append([]*System{sys}, forks...)
			results := make([]*Result, len(runs))
			errs := make([]error, len(runs))
			var wg sync.WaitGroup
			for i, r := range runs {
				wg.Add(1)
				go func(i int, r *System) {
					defer wg.Done()
					results[i], errs[i] = finish(r)
				}(i, r)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			want := normalizeResult(baseRes)
			for i, res := range results {
				if got := normalizeResult(res); !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d diverged from uninterrupted baseline:\nbase: %+v\ngot:  %+v", i, want, got)
				}
			}
		})
	}
}

// TestForkOntoStrategy checks the warm-start fork path: restoring a
// snapshot onto a different strategy seeds the fresh policy with the
// inherited contents and the run completes with conserved accounting.
func TestForkOntoStrategy(t *testing.T) {
	tr := snapshotTestTrace(t)
	windows := splitWindows(tr.Records, 6*time.Hour)
	cut := len(windows) / 2

	sys, err := NewSystem(snapshotTestConfig("lfu", 0), WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range windows[:cut] {
		if err := sys.SubmitBatch(w); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	warm := sys.Snapshot()

	for _, strategy := range []string{"lru", "lru-2", "gdsf", "global-lfu"} {
		t.Run(strategy, func(t *testing.T) {
			forked, err := RestoreSystem(st, RestoreOptions{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			m := forked.Snapshot()
			if m.CacheUsed != warm.CacheUsed || m.CachedPrograms != warm.CachedPrograms {
				t.Fatalf("fork did not inherit the warm cache: %v/%d vs %v/%d",
					m.CacheUsed, m.CachedPrograms, warm.CacheUsed, warm.CachedPrograms)
			}
			if got := forked.Config().StrategyLabel(); got != strategy {
				t.Fatalf("fork runs %q, want %q", got, strategy)
			}
			for _, w := range windows[cut:] {
				if err := forked.SubmitBatch(w); err != nil {
					t.Fatal(err)
				}
			}
			res, err := forked.Close()
			if err != nil {
				t.Fatal(err)
			}
			c := res.Counters
			if c.Hits+c.Misses() != c.SegmentRequests {
				t.Fatalf("hits %d + misses %d != requests %d", c.Hits, c.Misses(), c.SegmentRequests)
			}
			if c.Sessions != uint64(tr.Len()) {
				t.Fatalf("sessions %d != trace records %d", c.Sessions, tr.Len())
			}
		})
	}

	// The un-snapshottable live feed fails with a descriptive error at
	// export, not silently.
	live, err := NewSystem(Config{
		Topology:     hfc.Config{NeighborhoodSize: 300, PerPeerStorage: 2 * units.GB},
		StrategyName: "global-lfu",
	}, WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.SubmitBatch(windows[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := live.ExportState(); err == nil {
		t.Fatal("exporting global-lfu state succeeded; want a descriptive error")
	}
}
