package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cablevod"
)

func quietStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func smallTraceFile(t *testing.T) string {
	t.Helper()
	opts := cablevod.DefaultTraceOptions()
	opts.Users, opts.Programs, opts.Days = 300, 60, 2
	tr, err := cablevod.GenerateTrace(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.gob")
	if err := cablevod.SaveTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunFromTraceFile(t *testing.T) {
	quietStdout(t)
	path := smallTraceFile(t)
	for _, strat := range []string{"lru", "lfu", "oracle", "global-lfu"} {
		if err := run([]string{
			"-trace", path, "-neighborhood", "150", "-storage", "1GB",
			"-strategy", strat, "-warmup", "0",
		}); err != nil {
			t.Errorf("%s: %v", strat, err)
		}
	}
}

func TestRunFillModes(t *testing.T) {
	quietStdout(t)
	path := smallTraceFile(t)
	for _, fill := range []string{"immediate", "on-broadcast"} {
		if err := run([]string{"-trace", path, "-neighborhood", "150", "-fill", fill, "-warmup", "0"}); err != nil {
			t.Errorf("%s: %v", fill, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	quietStdout(t)
	path := smallTraceFile(t)
	cases := [][]string{
		{},                      // neither -trace nor -synth
		{"-trace", "/nope.gob"}, // missing file
		{"-trace", path, "-strategy", "bogus"},
		{"-trace", path, "-storage", "bogus"},
		{"-trace", path, "-fill", "bogus"},
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunSynth(t *testing.T) {
	quietStdout(t)
	if err := run([]string{
		"-synth", "-synth-users", "300", "-synth-programs", "60", "-synth-days", "2",
		"-neighborhood", "150", "-warmup", "0",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensionFlags(t *testing.T) {
	quietStdout(t)
	path := smallTraceFile(t)
	if err := run([]string{
		"-trace", path, "-neighborhood", "150", "-storage", "1GB", "-warmup", "0",
		"-replicas", "2", "-prefix-segments", "4", "-max-streams", "4",
	}); err != nil {
		t.Error(err)
	}
	// Invalid values surface as config errors.
	if err := run([]string{"-trace", path, "-replicas", "-1"}); err == nil {
		t.Error("expected error for negative replicas")
	}
	if err := run([]string{"-trace", path, "-prefix-segments", "-1"}); err == nil {
		t.Error("expected error for negative prefix segments")
	}
	if err := run([]string{"-trace", path, "-max-streams", "-1"}); err == nil {
		t.Error("expected error for negative max streams")
	}
}

func TestRunLive(t *testing.T) {
	quietStdout(t)
	path := smallTraceFile(t)
	for _, strat := range []string{"lfu", "oracle"} {
		if err := run([]string{
			"-trace", path, "-neighborhood", "150", "-storage", "1GB",
			"-strategy", strat, "-warmup", "0", "-live", "1",
		}); err != nil {
			t.Errorf("%s: %v", strat, err)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected into a buffer and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	return captureOutput(t, &os.Stdout, fn)
}

// captureOutput runs fn with *f (os.Stdout or os.Stderr) redirected to
// a pipe and returns what fn wrote to it.
func captureOutput(t *testing.T, f **os.File, fn func() error) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string)
	go func() {
		var buf strings.Builder
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := fn()
	*f = old
	w.Close()
	out := <-done
	r.Close()
	if errRun != nil {
		t.Fatal(errRun)
	}
	return out
}

// TestRunLiveParallelBreakdown: -parallel wires the shard worker pool
// and -live prints the shard count and per-neighborhood breakdown.
func TestRunLiveParallelBreakdown(t *testing.T) {
	path := smallTraceFile(t)
	out := captureStdout(t, func() error {
		return run([]string{
			"-trace", path, "-neighborhood", "100", "-storage", "1GB",
			"-warmup", "0", "-live", "1", "-parallel", "2",
		})
	})
	if !strings.Contains(out, "shards (one per neighborhood)") {
		t.Errorf("live output missing shard count line:\n%s", out)
	}
	if !strings.Contains(out, "per-neighborhood breakdown") {
		t.Errorf("live output missing per-neighborhood breakdown:\n%s", out)
	}
	// 300 users over 100-peer neighborhoods = 3 shard rows.
	for _, row := range []string{"   0 ", "   1 ", "   2 "} {
		if !strings.Contains(out, row) {
			t.Errorf("breakdown missing neighborhood row %q:\n%s", row, out)
		}
	}
}

// TestRunParallelMatchesSerial: the batch CLI path produces identical
// headline output at -parallel 1 and -parallel 4.
func TestRunParallelMatchesSerial(t *testing.T) {
	path := smallTraceFile(t)
	var outs []string
	for _, par := range []string{"1", "4"} {
		out := captureStdout(t, func() error {
			return run([]string{
				"-trace", path, "-neighborhood", "100", "-storage", "1GB",
				"-warmup", "0", "-parallel", par,
			})
		})
		// The elapsed line is wall-clock and legitimately differs.
		lines := strings.Split(out, "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.HasPrefix(l, "elapsed") {
				kept = append(kept, l)
			}
		}
		outs = append(outs, strings.Join(kept, "\n"))
	}
	if outs[0] != outs[1] {
		t.Errorf("-parallel 4 output differs from -parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s", outs[0], outs[1])
	}
}

func TestRunRegisteredStrategyName(t *testing.T) {
	quietStdout(t)
	if err := cablevod.RegisterStrategy("vodsim-test-lru", func(cablevod.Config) cablevod.Policy {
		return nopPolicy{}
	}); err != nil {
		t.Fatal(err)
	}
	path := smallTraceFile(t)
	if err := run([]string{"-trace", path, "-neighborhood", "150", "-strategy", "vodsim-test-lru", "-warmup", "0"}); err != nil {
		t.Error(err)
	}
}

// scenarioArgs are the common CI-scale sizing flags for -scenario runs.
func scenarioArgs(extra ...string) []string {
	args := []string{
		"-scenario", "flash-crowd", "-synth-users", "300", "-synth-programs", "60",
		"-synth-days", "3", "-neighborhood", "150", "-storage", "1GB", "-warmup", "0",
	}
	return append(args, extra...)
}

// TestRunScenarioMode: -scenario drives a registered scenario end to
// end, with checkpoints labelled by the active phase.
func TestRunScenarioMode(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(scenarioArgs("-checkpoint", "24"))
	})
	if !strings.Contains(out, "[flash") {
		t.Errorf("no checkpoint labelled with the flash phase:\n%s", out)
	}
	if !strings.Contains(out, "savings") {
		t.Errorf("missing final result:\n%s", out)
	}
}

// TestRunScenarioList: -scenario-list prints the registry.
func TestRunScenarioList(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-scenario-list"})
	})
	for _, name := range []string{"flash-crowd", "premiere", "churn-wave", "weekend-surge", "regional-drift"} {
		if !strings.Contains(out, name) {
			t.Errorf("scenario list missing %q:\n%s", name, out)
		}
	}
}

// TestRunScenarioJSON: -snapshot-json emits one parseable JSON object
// per checkpoint with the machine-readable metrics fields.
func TestRunScenarioJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(scenarioArgs("-checkpoint", "24", "-snapshot-json"))
	})
	jsonLines := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		jsonLines++
		var cp struct {
			AtHours float64 `json:"at_hours"`
			Phases  string  `json:"phases"`
			Metrics struct {
				HitRatio        float64          `json:"hit_ratio"`
				Counters        map[string]int64 `json:"counters"`
				PerNeighborhood []map[string]any `json:"per_neighborhood"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &cp); err != nil {
			t.Fatalf("unparseable checkpoint line: %v\n%s", err, line)
		}
		if cp.AtHours <= 0 || cp.Metrics.Counters["sessions"] == 0 || len(cp.Metrics.PerNeighborhood) != 2 {
			t.Errorf("checkpoint JSON missing fields: %s", line)
		}
	}
	if jsonLines != 3 {
		t.Errorf("got %d JSON checkpoint lines, want 3:\n%s", jsonLines, out)
	}
}

// TestRunLiveJSON: -live -snapshot-json emits JSON snapshots.
func TestRunLiveJSON(t *testing.T) {
	path := smallTraceFile(t)
	out := captureStdout(t, func() error {
		return run([]string{
			"-trace", path, "-neighborhood", "150", "-storage", "1GB",
			"-warmup", "0", "-live", "1", "-snapshot-json",
		})
	})
	saw := false
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable snapshot line: %v\n%s", err, line)
		}
		if _, ok := m["per_neighborhood"]; !ok {
			t.Errorf("snapshot JSON missing per_neighborhood: %s", line)
		}
		saw = true
	}
	if !saw {
		t.Errorf("no JSON snapshot lines in live output:\n%s", out)
	}
}

// TestRunScenarioErrors: broken scenario flags are rejected.
func TestRunScenarioErrors(t *testing.T) {
	quietStdout(t)
	cases := [][]string{
		{"-scenario", "no-such-scenario"},   // unknown name
		scenarioArgs("-checkpoint", "-1"),   // negative checkpoint
		scenarioArgs("-accel", "-2"),        // negative acceleration
		scenarioArgs("-strategy", "oracle"), // offline strategy, no future
		scenarioArgs("-synth-days", "0"),    // invalid base workload
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// nopPolicy never caches anything.
type nopPolicy struct{}

func (nopPolicy) Name() string                                         { return "nop" }
func (nopPolicy) Advance(time.Duration)                                {}
func (nopPolicy) OnRequest(cablevod.ProgramID, time.Duration)          {}
func (nopPolicy) CandidateValue(cablevod.ProgramID, time.Duration) int { return -1 }
func (nopPolicy) OnAdmit(cablevod.ProgramID, time.Duration)            {}
func (nopPolicy) OnEvict(cablevod.ProgramID)                           {}
func (nopPolicy) EvictionOrder(func(cablevod.ProgramID, int) bool)     {}

// TestRunStrategyList: -strategy-list prints every registered strategy
// with its registry description.
func TestRunStrategyList(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-strategy-list"})
	})
	for _, name := range []string{"lru", "lfu", "oracle", "global-lfu", "gdsf", "lru-2", "prefix-lfu"} {
		if !strings.Contains(out, name) {
			t.Errorf("strategy list missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "size-aware frequency") {
		t.Errorf("strategy list missing registry descriptions:\n%s", out)
	}
}

// TestRunZooStrategy: a zoo strategy is selectable by -strategy.
func TestRunZooStrategy(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-synth", "-synth-users", "600", "-synth-programs", "120",
			"-synth-days", "2", "-neighborhood", "300", "-storage", "1GB",
			"-warmup", "0", "-strategy", "gdsf"})
	})
	if !strings.Contains(out, "strategy            gdsf") {
		t.Errorf("output does not report the gdsf strategy:\n%s", out)
	}
}
