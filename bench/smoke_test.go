package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// tinySize runs every workload's passes in well under a second.
var tinySize = size{
	users:      2000,
	metroUsers: 2000, metroNeighborhoods: 4, metroDays: 2,
	metroLeg: 8 * time.Hour,
	batch:    500, openBatches: 8, probeBatches: 8,
}

// TestMain lets the test binary serve as the calibration child that runs
// re-execute.
func TestMain(m *testing.M) {
	if calibrating() {
		os.Exit(calibMain(os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is BENCHMARK.json, the contract the result lines are
// checked against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// logWriter sends a run's diagnostics to the test log.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestSmoke measures every workload at a tiny size, untraced with one
// pass and traced with two, and checks each result line against
// BENCHMARK.json and each run's outcome against the others.
func TestSmoke(t *testing.T) {
	spec := readBenchmark(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames())
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if got, w := len(want[false]), len(endToEnd); got != w {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", got, w)
	}

	outs := map[string]outcome{}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			traceDir := t.TempDir()
			o := options{seed: 1, traced: traced, traceDir: traceDir}
			res, out, err := measure(name, o, tinySize, nil, t.TempDir(), logWriter{t})
			if err != nil {
				t.Fatalf("%s (traced %t): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %t): correct %t, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for m, unit := range want[traced] {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s (traced %t): metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
			}
			for m := range res.Metrics {
				if _, ok := want[traced][m]; !ok {
					t.Errorf("%s (traced %t): metric %s is not in BENCHMARK.json", name, traced, m)
				}
			}
			if prev, ok := outs[name]; ok && prev != *out {
				t.Errorf("%s: traced run ended with %+v, untraced with %+v", name, *out, prev)
			}
			outs[name] = *out
			if traced {
				for _, f := range []string{"spans.jsonl", "cpu.pprof"} {
					if fi, err := os.Stat(filepath.Join(traceDir, name, f)); err != nil || fi.Size() == 0 {
						t.Errorf("%s: traced run left no %s: %v", name, f, err)
					}
				}
			}
		}
	}
	if outs["daemon-ingest"] != outs["plant7d"] {
		t.Errorf("daemon-ingest ended with %+v, plant7d with %+v", outs["daemon-ingest"], outs["plant7d"])
	}
	if outs["metro-longrun"].Digest == "" {
		t.Error("metro-longrun outcome has no state digest")
	}
}

// TestGoldens checks the committed goldens' own cross-check: the daemon
// carries plant7d's records to the same engine, so its outcome must be
// plant7d's.
func TestGoldens(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		for _, name := range workloadNames() {
			if g.lookup(seed, name) == nil {
				t.Errorf("no golden outcome for %s at seed %d", name, seed)
			}
		}
		if d, p := g.lookup(seed, "daemon-ingest"), g.lookup(seed, "plant7d"); d != nil && p != nil && *d != *p {
			t.Errorf("seed %d: daemon-ingest golden %+v differs from plant7d's %+v", seed, *d, *p)
		}
	}
}
