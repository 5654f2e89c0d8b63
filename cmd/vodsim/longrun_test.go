package main

import (
	"os"
	"regexp"
	"strconv"
	"testing"

	"cablevod/internal/universe"
)

var liveHeapLine = regexp.MustCompile(`live heap ([0-9.]+) MB`)

// TestScaleReportsOpenEngineHeap: -scale reads the live heap while the
// engine is still open — after the last batch, or at each checkpoint of
// a long run — so the reading holds the plant. A reading taken after
// the engine closed shows only what the process keeps without it.
func TestScaleReportsOpenEngineHeap(t *testing.T) {
	quietStdout(t)
	cases := []struct {
		name     string
		args     []string
		readings int // one per leg plus the final line
	}{
		{"single pass", []string{"-scale", "mega-lite", "-synth-days", "1"}, 1},
		{"longrun", []string{"-scale", "mega-lite", "-synth-days", "1",
			"-longrun", "-longrun-dir", t.TempDir(), "-leg", "12"}, 3},
	}
	for _, tc := range cases {
		log := captureOutput(t, &os.Stderr, func() error { return run(tc.args) })
		m := liveHeapLine.FindAllStringSubmatch(log, -1)
		if len(m) == 0 {
			t.Fatalf("%s: no live heap reading:\n%s", tc.name, log)
		}
		if len(m) != tc.readings {
			t.Errorf("%s: %d live heap readings, want %d:\n%s", tc.name, len(m), tc.readings, log)
		}
		reported, err := strconv.ParseFloat(m[len(m)-1][1], 64)
		if err != nil {
			t.Fatal(err)
		}
		after := float64(universe.MeasureFootprint().HeapLiveBytes) / 1e6
		if reported < after+1 {
			t.Errorf("%s: reported live heap %.1f MB, %.1f MB once the run returned: the reading missed the plant",
				tc.name, reported, after)
		}
	}
}
