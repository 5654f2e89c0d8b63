package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"cablevod/internal/core"
	"cablevod/internal/scenario"
)

// specDir is the checked-in spec corpus, shared with the CLI and the
// public API tests.
const specDir = "../../../testdata/scenarios"

// specNames are the five registry scenarios re-expressed as data.
var specNames = []string{"flash-crowd", "premiere", "churn-wave", "weekend-surge", "regional-drift"}

// adversitySpecNames are the checked-in fault-injection scenarios; they
// have no registry twins (faults are spec-only), so the equivalence gate
// skips them and TestAdversitySpecs pins their behaviour instead.
var adversitySpecNames = []string{"node-outage", "cache-wipe"}

// allSpecNames is the complete checked-in corpus, for the golden
// checkpoint series.
func allSpecNames() []string {
	return append(append([]string(nil), specNames...), adversitySpecNames...)
}

func loadSpec(t *testing.T, name string) *File {
	t.Helper()
	f, err := Load(filepath.Join(specDir, name+".yaml"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return f
}

func checkpointJSON(t *testing.T, cps []scenario.Checkpoint) []byte {
	t.Helper()
	data, err := json.Marshal(cps)
	if err != nil {
		t.Fatalf("marshal checkpoints: %v", err)
	}
	return data
}

// TestSpecRegistryEquivalence is the CI gate of the data path: every
// checked-in spec must compile to exactly the scenario.Spec its Go
// registry twin builds, and must produce a byte-identical checkpoint
// series at parallelism 1, 4, and GOMAXPROCS — the same determinism
// contract the engine pins for batch runs.
func TestSpecRegistryEquivalence(t *testing.T) {
	for _, name := range specNames {
		t.Run(name, func(t *testing.T) {
			f := loadSpec(t, name)
			if f.Name != name {
				t.Fatalf("spec name %q, want %q", f.Name, name)
			}

			// The compiled spec is structurally identical to the
			// registry twin built from the same base workload.
			builder, err := scenario.Lookup(name)
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			twin := builder.Build(f.BaseConfig())
			if got := f.ScenarioSpec(); !reflect.DeepEqual(got, twin) {
				t.Fatalf("compiled spec diverges from registry twin:\n got: %+v\nwant: %+v", got, twin)
			}

			// The registry twin, driven directly, produces the
			// reference checkpoint series.
			cfg, err := f.EngineConfig(core.Config{})
			if err != nil {
				t.Fatalf("engine config: %v", err)
			}
			cfg.Parallelism = 1
			drv, err := scenario.NewDriver(cfg, twin, scenario.Options{Checkpoint: f.Checkpoint})
			if err != nil {
				t.Fatalf("registry driver: %v", err)
			}
			if _, err := drv.Run(); err != nil {
				t.Fatalf("registry run: %v", err)
			}
			want := checkpointJSON(t, drv.Checkpoints())

			widths := []int{1, 4, runtime.GOMAXPROCS(0)}
			for _, par := range widths {
				t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
					report, err := Run(f, RunOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("harness run: %v", err)
					}
					got := checkpointJSON(t, report.Checkpoints)
					if !bytes.Equal(got, want) {
						t.Fatalf("checkpoint series diverges from registry twin at parallelism %d:\nfirst divergence: %s",
							par, firstJSONDivergence(got, want))
					}
					if fail := report.FirstFailure(); fail != nil {
						t.Errorf("checked-in assertion %s violated: %s", fail.Label, fail.Detail)
					}
				})
			}
		})
	}
}

// firstJSONDivergence walks two JSON documents in parallel and names
// the first path where they differ.
func firstJSONDivergence(a, b []byte) string {
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return fmt.Sprintf("left unparsable: %v", err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return fmt.Sprintf("right unparsable: %v", err)
	}
	path, l, r, found := divergence(va, vb, "$")
	if !found {
		return "documents are JSON-equal but not byte-equal (formatting)"
	}
	return fmt.Sprintf("%s: %v != %v", path, l, r)
}

// divergence locates the first differing path between two generic JSON
// trees, in document order.
func divergence(a, b any, path string) (string, any, any, bool) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return path, a, b, true
		}
		keys := make([]string, 0, len(av))
		for k := range av {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bk, ok := bv[k]
			if !ok {
				return path + "." + k, av[k], "<missing>", true
			}
			if p, l, r, found := divergence(av[k], bk, path+"."+k); found {
				return p, l, r, true
			}
		}
		for k := range bv {
			if _, ok := av[k]; !ok {
				return path + "." + k, "<missing>", bv[k], true
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok {
			return path, a, b, true
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			if p, l, r, found := divergence(av[i], bv[i], fmt.Sprintf("%s[%d]", path, i)); found {
				return p, l, r, true
			}
		}
		if len(av) != len(bv) {
			return path, fmt.Sprintf("len %d", len(av)), fmt.Sprintf("len %d", len(bv)), true
		}
	default:
		if !reflect.DeepEqual(a, b) {
			return path, a, b, true
		}
	}
	return "", nil, nil, false
}
