package universe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// runToCompletion drives LongRun in legsPerCall-sized invocations
// until Done, returning the final result. Each invocation after the
// first resumes from the checkpoint directory.
func runToCompletion(t *testing.T, tier Config, base core.Config, dir string, legsPerCall int) *LongRunResult {
	t.Helper()
	for calls := 0; ; calls++ {
		if calls > 50 {
			t.Fatal("long run did not converge")
		}
		res, err := LongRun(tier, base, LongRunOptions{Dir: dir, Leg: 24 * time.Hour, MaxLegs: legsPerCall})
		if err != nil {
			t.Fatalf("LongRun leg call %d: %v", calls, err)
		}
		if calls > 0 && !res.Resumed {
			t.Fatalf("call %d did not resume from the checkpoint", calls)
		}
		if res.Done {
			return res
		}
	}
}

// TestLongRunEquivalence pins the determinism contract at the
// mega-lite tier: an uninterrupted run at parallelism 1, a run split
// into three 24h legs across separate invocations at parallelism 4,
// and a two-invocation split at GOMAXPROCS must all converge to the
// same canonical state digest and the same headline metrics.
func TestLongRunEquivalence(t *testing.T) {
	tier, err := Tier("mega-lite")
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{WarmupDays: 1}

	// Reference: one invocation, no interruption, fully serial engine.
	serial := base
	serial.Parallelism = 1
	ref, err := LongRun(tier, serial, LongRunOptions{Dir: t.TempDir(), Leg: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Done || ref.Result == nil {
		t.Fatal("uninterrupted run did not finish")
	}
	if ref.LegsTotal != tier.Days {
		t.Fatalf("expected %d legs for %d days, got %d", tier.Days, tier.Days, ref.LegsTotal)
	}
	if ref.Digest == "" || !strings.HasPrefix(ref.Digest, "sha256:") {
		t.Fatalf("bad digest %q", ref.Digest)
	}

	// Split run: one leg per invocation, wider worker pool.
	wide := base
	wide.Parallelism = 4
	split := runToCompletion(t, tier, wide, t.TempDir(), 1)
	if split.Digest != ref.Digest {
		t.Fatalf("3-leg run at parallelism 4 diverged:\n  legged   %s\n  straight %s", split.Digest, ref.Digest)
	}

	// Split differently at GOMAXPROCS (Parallelism 0).
	gmp := base
	gmp.Parallelism = 0
	split2 := runToCompletion(t, tier, gmp, t.TempDir(), 2)
	if split2.Digest != ref.Digest {
		t.Fatalf("2+1-leg run at GOMAXPROCS=%d diverged:\n  legged   %s\n  straight %s",
			runtime.GOMAXPROCS(0), split2.Digest, ref.Digest)
	}

	// The closed-out metrics must agree too, not just the state.
	for name, res := range map[string]*LongRunResult{"p4-split": split, "gmp-split": split2} {
		if res.Result.Counters != ref.Result.Counters {
			t.Errorf("%s counters diverged:\n  got  %+v\n  want %+v", name, res.Result.Counters, ref.Result.Counters)
		}
		if res.Submitted != ref.Submitted {
			t.Errorf("%s submitted %d records, reference %d", name, res.Submitted, ref.Submitted)
		}
	}
	if ref.Submitted == 0 {
		t.Fatal("mega-lite produced no records")
	}
}

// TestLongRunUnevenLegs: 5-hour legs on the 72-hour mega-lite tier make
// 15 legs, the last one 2 hours long. Paused after 7 legs and resumed at
// another parallelism, the run reaches the digest of 24-hour legs.
func TestLongRunUnevenLegs(t *testing.T) {
	tier, err := Tier("mega-lite")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LongRun(tier, core.Config{Parallelism: 1}, LongRunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var at []time.Duration
	opts := LongRunOptions{Dir: t.TempDir(), Leg: 5 * time.Hour, MaxLegs: 7, OnLeg: func(l LegInfo) { at = append(at, l.At) }}
	if res, err := LongRun(tier, core.Config{Parallelism: 1}, opts); err != nil || res.Done || res.At != 35*time.Hour {
		t.Fatalf("7 legs of 5 hours: %+v, %v; want a pause at 35h", res, err)
	}
	opts.MaxLegs = 0
	res, err := LongRun(tier, core.Config{Parallelism: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.LegsRun != 8 || res.LegsTotal != 15 || res.At != 72*time.Hour || at[13] != 70*time.Hour {
		t.Errorf("resumed run: done %v, %d of %d legs, checkpoints at %v; want 8 of 15 legs ending 70h, 72h", res.Done, res.LegsRun, res.LegsTotal, at)
	}
	if res.Digest != ref.Digest || res.Submitted != ref.Submitted {
		t.Errorf("5-hour legs reached %s after %d records, 24-hour legs %s after %d", res.Digest, res.Submitted, ref.Digest, ref.Submitted)
	}
}

// TestLongRunRejectsEditedLedger: a ledger whose hours no longer hold
// the snapshot's records is refused by the regenerated record count.
func TestLongRunRejectsEditedLedger(t *testing.T) {
	tier, err := Tier("mega-lite")
	if err != nil {
		t.Fatal(err)
	}
	opts := LongRunOptions{Dir: t.TempDir(), MaxLegs: 1}
	if _, err := LongRun(tier, core.Config{}, opts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opts.Dir, stateFileName)
	b, err := os.ReadFile(path)
	if err == nil {
		err = os.WriteFile(path, bytes.Replace(b, []byte(`"hours_done":24}`), []byte(`"hours_done":20}`), 1), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	_, err = LongRun(tier, core.Config{}, opts)
	if err == nil || !strings.Contains(err.Error(), "regenerated") || !strings.Contains(err.Error(), "mega-lite workload diverges") ||
		!strings.Contains(err.Error(), "7436 records in 20 hours") || !strings.Contains(err.Error(), "says 11019") {
		t.Fatalf("ledger edited from 24 to 20 hours: err = %v, want the regenerated workload to diverge", err)
	}
}

// TestLongRunResumeStateOnDisk checks the checkpoint is one file, and a
// mid-run invocation reports a resumable (not Done) result.
func TestLongRunResumeStateOnDisk(t *testing.T) {
	tier, err := Tier("quick")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := LongRun(tier, core.Config{}, LongRunOptions{Dir: dir, Leg: 24 * time.Hour, MaxLegs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done || res.LegsRun != 1 || res.LegsTotal != 1 {
		t.Fatalf("expected one resumable leg, got %+v", res)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 1 || files[0].Name() != stateFileName {
		t.Errorf("checkpoint directory holds %v (%v), want %s alone", files, err, stateFileName)
	}
	if res.At != 24*time.Hour {
		t.Errorf("first leg checkpoint at %v, want 24h", res.At)
	}
}

// TestLongRunRejectsMismatchedResume pins the clear-error guard: a
// checkpoint directory created by one universe cannot be resumed as
// another, with a different engine setting, or with a different leg
// length.
func TestLongRunRejectsMismatchedResume(t *testing.T) {
	quick, err := Tier("quick")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := LongRun(quick, core.Config{}, LongRunOptions{Dir: dir, Leg: 24 * time.Hour, MaxLegs: 1}); err != nil {
		t.Fatal(err)
	}

	lite, _ := Tier("mega-lite")
	if _, err := LongRun(lite, core.Config{}, LongRunOptions{Dir: dir, Leg: 24 * time.Hour}); err == nil {
		t.Fatal("resume with a different tier accepted")
	} else if !strings.Contains(err.Error(), "tier") {
		t.Fatalf("tier mismatch error is not clear about the cause: %v", err)
	}

	reseeded := quick
	reseeded.Seed = 99
	if _, err := LongRun(reseeded, core.Config{}, LongRunOptions{Dir: dir, Leg: 24 * time.Hour}); err == nil {
		t.Fatal("resume with a different seed accepted")
	} else if !strings.Contains(err.Error(), "Tier.Seed 1; requested 99") {
		t.Fatalf("seed mismatch error does not show the seed: %v", err)
	}

	if _, err := LongRun(quick, core.Config{Strategy: core.StrategyLRU}, LongRunOptions{Dir: dir, Leg: 24 * time.Hour}); err == nil {
		t.Fatal("resume with a different strategy accepted")
	} else if !strings.Contains(err.Error(), "Strategy lfu; requested lru") {
		t.Fatalf("strategy mismatch error is not clear: %v", err)
	}

	// Every other engine setting is the run's too; only the parallelism
	// may change.
	for want, cfg := range map[string]core.Config{
		"Engine.WarmupDays 0; requested 2": {WarmupDays: 2},
		"Engine.Topology.PerPeerStorage":   {Topology: hfc.Config{PerPeerStorage: 5 * units.GB}},
	} {
		if _, err := LongRun(quick, cfg, LongRunOptions{Dir: dir, Leg: 24 * time.Hour}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("resume with a changed engine setting: err = %v, want it to say %q", err, want)
		}
	}

	if _, err := LongRun(quick, core.Config{}, LongRunOptions{Dir: dir, Leg: 12 * time.Hour}); err == nil {
		t.Fatal("resume with a different leg length accepted")
	} else if !strings.Contains(err.Error(), "leg") {
		t.Fatalf("leg mismatch error is not clear: %v", err)
	}

	// Matching everything resumes cleanly to completion.
	done, err := LongRun(quick, core.Config{Parallelism: 3}, LongRunOptions{Dir: dir, Leg: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !done.Done || !done.Resumed {
		t.Fatalf("matching resume did not complete the run: %+v", done)
	}
}

// TestLongRunResumesCrashOutcomes rebuilds what a crash during a leg's
// checkpoint leaves: the previous leg's state.snap beside a temp file
// holding the next leg's file cut at a section boundary (from the empty
// file to the whole one, not yet renamed), or such a temp with no
// state.snap when the first leg's checkpoint crashed. Run to the end
// from either, the run reaches the digest of an uninterrupted one.
func TestLongRunResumesCrashOutcomes(t *testing.T) {
	tier, err := Tier("mega-lite")
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{Parallelism: 1}
	var legs [][]byte // state.snap after each leg
	var want string
	for dir := t.TempDir(); want == ""; {
		res, err := LongRun(tier, base, LongRunOptions{Dir: dir, MaxLegs: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(res.StatePath)
		if err != nil {
			t.Fatal(err)
		}
		legs = append(legs, b)
		if res.Done {
			want = res.Digest
		}
	}
	prev, next := legs[len(legs)-2], legs[len(legs)-1]
	cuts := []int{0, bytes.IndexByte(next, '\n') + 1}
	for i := cuts[1]; i < len(next); {
		size, n := binary.Uvarint(next[i:])
		i += n + int(size) + crc32.Size
		cuts = append(cuts, i)
	}
	crash := func(t *testing.T, state []byte, cut int) {
		dir := t.TempDir()
		err := os.WriteFile(filepath.Join(dir, ".snapshot-2973604126"), next[:cut], 0o600)
		if err == nil && state != nil {
			err = os.WriteFile(filepath.Join(dir, stateFileName), state, 0o600)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := LongRun(tier, base, LongRunOptions{Dir: dir})
		if err != nil || !res.Done || res.Resumed != (state != nil) || res.Digest != want {
			t.Errorf("temp cut at byte %d of %d: %+v, %v; want a finished run with digest %s", cut, len(next), res, err, want)
		}
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("previous leg, temp cut at %d", cut), func(t *testing.T) { crash(t, prev, cut) })
	}
	t.Run("no state file", func(t *testing.T) { crash(t, nil, cuts[len(cuts)/2]) })
}

// TestLongRunRejectsForeignSnapshot swaps in the checkpoint of a run
// with another seed; the ledger in its header must refuse it rather
// than silently simulate a chimera.
func TestLongRunRejectsForeignSnapshot(t *testing.T) {
	quick, err := Tier("quick")
	if err != nil {
		t.Fatal(err)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := LongRun(quick, core.Config{}, LongRunOptions{Dir: dirA, Leg: 24 * time.Hour, MaxLegs: 1}); err != nil {
		t.Fatal(err)
	}
	other := quick
	other.Seed = 7
	if _, err := LongRun(other, core.Config{}, LongRunOptions{Dir: dirB, Leg: 24 * time.Hour, MaxLegs: 1}); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dirB, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirA, stateFileName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LongRun(quick, core.Config{}, LongRunOptions{Dir: dirA, Leg: 24 * time.Hour}); err == nil {
		t.Fatal("a checkpoint of another seed accepted")
	}
}

// TestVerifySnapshotPopulation: a resumed state's users must be the
// tier's dense population, user i at position i, so a repeated or
// reordered user is refused.
func TestVerifySnapshotPopulation(t *testing.T) {
	tier := Config{Name: "t", Subscribers: 4, Neighborhoods: 1, Catalog: 5, Days: 1}
	st := &core.SystemState{Config: core.Config{Topology: hfc.Config{NeighborhoodSize: 4}}}
	for users, ok := range map[[4]trace.UserID]bool{{0, 1, 2, 3}: true, {0, 1, 1, 2}: false, {0, 2, 1, 3}: false} {
		st.Users = users[:]
		if err := verifySnapshot(st, tier); (err == nil) != ok {
			t.Errorf("users %v: err = %v, want ok %v", users, err, ok)
		}
	}
}
