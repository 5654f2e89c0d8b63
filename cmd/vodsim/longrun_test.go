package main

import (
	"os"
	"regexp"
	"strconv"
	"strings"
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

// TestScaleReportsAppliedWarmup: the default 7-day warm-up would cover
// all of a 1-day run, so none is applied, and the report says so.
func TestScaleReportsAppliedWarmup(t *testing.T) {
	var out string
	captureOutput(t, &os.Stderr, func() error {
		out = captureOutput(t, &os.Stdout, func() error { return run([]string{"-scale", "mega-lite", "-synth-days", "1"}) })
		return nil
	})
	if !strings.Contains(out, "trace days          1 (warmup 0)\n") {
		t.Errorf("the report does not show the warm-up applied:\n%s", out)
	}
}
