package core

import (
	"testing"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/hfc"
	"cablevod/internal/segment"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// buildNeighborhood returns a neighborhood with n boxes of the given
// storage.
func buildNeighborhood(t *testing.T, n int, storage units.ByteSize) *hfc.Neighborhood {
	t.Helper()
	users := make([]trace.UserID, n)
	for i := range users {
		users[i] = trace.UserID(i)
	}
	topo, err := hfc.Build(hfc.Config{NeighborhoodSize: n, PerPeerStorage: storage}, users)
	if err != nil {
		t.Fatal(err)
	}
	return topo.Neighborhoods()[0]
}

func fixedLengths(l time.Duration) func(trace.ProgramID) time.Duration {
	return func(trace.ProgramID) time.Duration { return l }
}

// lruPolicy returns the built-in lru strategy's policy for one
// neighborhood, for tests that need some policy to drive.
func lruPolicy(t *testing.T) cache.Policy {
	t.Helper()
	factory, _ := LookupStrategyFactory(StrategyLRU.String())
	build, err := factory(&PolicyEnv{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func newIS(t *testing.T, nb *hfc.Neighborhood, fill FillMode) *IndexServer {
	t.Helper()
	is, err := NewIndexServer(nb, lruPolicy(t), fixedLengths(10*time.Minute), ServerOptions{
		EnforceStreamLimit: true,
		Fill:               fill,
		BroadcastFill:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return is
}

// mustPlacementSlots returns p's copy lists, one per cached segment,
// failing the test when p is not placed.
func mustPlacementSlots(t *testing.T, is *IndexServer, p trace.ProgramID) [][]int32 {
	t.Helper()
	pp := is.placementOf(p)
	if pp == nil {
		t.Fatalf("program %d is not placed", p)
	}
	slots := make([][]int32, pp.segs())
	for idx := range slots {
		slots[idx] = pp.copies(idx)
	}
	return slots
}

func TestNewIndexServerErrors(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	if _, err := NewIndexServer(nil, lruPolicy(t), fixedLengths(time.Hour), ServerOptions{}); err == nil {
		t.Error("expected error for nil neighborhood")
	}
	if _, err := NewIndexServer(nb, lruPolicy(t), nil, ServerOptions{}); err == nil {
		t.Error("expected error for nil length resolver")
	}
	if _, err := NewIndexServer(nb, lruPolicy(t), fixedLengths(time.Hour), ServerOptions{Fill: FillMode(99)}); err == nil {
		t.Error("expected error for invalid fill mode")
	}
	if _, err := NewIndexServer(nb, lruPolicy(t), fixedLengths(time.Hour), ServerOptions{Replicas: -1}); err == nil {
		t.Error("expected error for negative replicas")
	}
	if _, err := NewIndexServer(nb, lruPolicy(t), fixedLengths(time.Hour), ServerOptions{PrefixSegments: -1}); err == nil {
		t.Error("expected error for negative prefix")
	}
}

func TestImmediatePlacementPlacesAllSegments(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is := newIS(t, nb, FillImmediate)
	res := is.OnSessionStart(1, 0)
	if !res.Admitted {
		t.Fatal("program not admitted")
	}
	// 10-minute program = 2 segments, all placed.
	if got := is.PlacedSegments(1); got != 2 {
		t.Errorf("placed = %d, want 2", got)
	}
	if got := is.StoredBytes(); got != segment.ProgramSize(10*time.Minute) {
		t.Errorf("stored = %v, want full program", got)
	}
	// Both segments servable.
	for idx := 0; idx < 2; idx++ {
		out, peer := is.ServeSegment(1, idx)
		if out != ServedByPeer || peer == nil {
			t.Errorf("segment %d outcome = %v", idx, out)
		}
		peer.CloseStream()
	}
}

func TestImmediatePlacementRoundRobin(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is := newIS(t, nb, FillImmediate)
	is.OnSessionStart(1, 0)
	// Two segments land on two distinct peers (striping).
	slots := mustPlacementSlots(t, is, 1)
	if len(slots[0]) != 1 || len(slots[1]) != 1 {
		t.Fatalf("copies per segment = %d/%d, want 1/1", len(slots[0]), len(slots[1]))
	}
	if slots[0][0] == slots[1][0] {
		t.Error("both segments placed on the same peer")
	}
}

func TestBroadcastModeDoesNotPrePlace(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is := newIS(t, nb, FillOnBroadcast)
	is.OnSessionStart(1, 0)
	if got := is.PlacedSegments(1); got != 0 {
		t.Errorf("placed = %d, want 0 before any broadcast", got)
	}
	out, _ := is.ServeSegment(1, 0)
	if out != MissUnplaced {
		t.Errorf("outcome = %v, want miss-unplaced", out)
	}
	// A complete broadcast fills it.
	filler := is.TryFill(1, 0)
	if filler == nil {
		t.Fatal("fill failed")
	}
	filler.CloseStream()
	out, peer := is.ServeSegment(1, 0)
	if out != ServedByPeer {
		t.Errorf("post-fill outcome = %v", out)
	}
	peer.CloseStream()
}

func TestTryFillRespectsMode(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is := newIS(t, nb, FillImmediate)
	is.OnSessionStart(1, 0)
	if is.TryFill(1, 0) != nil {
		t.Error("TryFill must be inert under FillImmediate")
	}
}

func TestTryFillUnknownProgram(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is := newIS(t, nb, FillOnBroadcast)
	if is.TryFill(42, 0) != nil {
		t.Error("fill succeeded for uncached program")
	}
}

func TestServeSegmentOutcomes(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is := newIS(t, nb, FillImmediate)
	// Unknown program.
	if out, _ := is.ServeSegment(7, 0); out != MissNotCached {
		t.Errorf("outcome = %v, want miss-not-cached", out)
	}
	is.OnSessionStart(1, 0)
	// Out-of-range segment index.
	if out, _ := is.ServeSegment(1, 99); out != MissUnplaced {
		t.Errorf("outcome = %v, want miss-unplaced", out)
	}
	// Saturate the holding peer: occupy both its slots.
	_, p0 := is.ServeSegment(1, 0)
	_, p0b := is.ServeSegment(1, 0)
	if p0 == nil || p0b == nil {
		t.Fatal("expected two successful serves")
	}
	if out, _ := is.ServeSegment(1, 0); out != MissPeerBusy {
		t.Errorf("outcome = %v, want miss-peer-busy", out)
	}
	p0.CloseStream()
	p0b.CloseStream()
}

func TestEvictionReleasesAllPlacedStorage(t *testing.T) {
	// Cache of 2 programs max; admitting a third evicts the LRU one and
	// must free its per-peer reservations.
	nb := buildNeighborhood(t, 4, 400*units.MB) // 1.6 GB pool
	is := newIS(t, nb, FillImmediate)           // program = 604.5 MB

	is.OnSessionStart(1, 1*time.Second)
	is.OnSessionStart(2, 2*time.Second)
	before := is.StoredBytes()
	is.OnSessionStart(3, 3*time.Second) // evicts program 1
	after := is.StoredBytes()
	if after > before {
		t.Errorf("stored grew from %v to %v despite eviction", before, after)
	}
	if is.Cache().Contains(1) {
		t.Error("program 1 still cached")
	}
	if got := is.PlacedSegments(1); got != 0 {
		t.Errorf("evicted program still has %d placed segments", got)
	}
	// Bookkeeping identity: placed bytes equals the sum over cached
	// programs of their placed segment sizes.
	var want units.ByteSize
	for _, p := range []trace.ProgramID{2, 3} {
		for idx, copies := range mustPlacementSlots(t, is, p) {
			want += segment.SizeOf(10*time.Minute, idx) * units.ByteSize(len(copies))
		}
	}
	if after != want {
		t.Errorf("stored = %v, want %v", after, want)
	}
}

func TestOutcomeStrings(t *testing.T) {
	tests := map[ServeOutcome]string{
		ServedByPeer:     "hit",
		MissNotCached:    "miss-not-cached",
		MissUnplaced:     "miss-unplaced",
		MissPeerBusy:     "miss-peer-busy",
		ServeOutcome(42): "outcome(42)",
	}
	for o, want := range tests {
		if got := o.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if ServedByPeer.IsMiss() {
		t.Error("hit reported as miss")
	}
	if !MissPeerBusy.IsMiss() {
		t.Error("busy not reported as miss")
	}
}

func TestFillModeString(t *testing.T) {
	if FillImmediate.String() != "immediate" || FillOnBroadcast.String() != "on-broadcast" {
		t.Error("fill mode names wrong")
	}
	if FillMode(9).String() != "fillmode(9)" {
		t.Error("unknown fill mode name wrong")
	}
}

// upgradeTestPipeline builds a frequency-scored pipeline whose planner
// caches a 1-segment prefix for programs below two windowed accesses
// and the whole program from there on — the smallest planner that
// triggers the plan-upgrade path.
func upgradeTestPipeline(t *testing.T) cache.Policy {
	t.Helper()
	freq, err := cache.NewFrequencyScorer(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := cache.NewPipeline(cache.PipelineConfig{
		Name:   "upgrade-test",
		Scorer: freq,
		Planner: plannerFunc(func(p trace.ProgramID, now time.Duration, def cache.Plan) cache.Plan {
			if freq.Score(p, now) < 2 {
				return cache.Plan{PrefixSegments: 1, Replicas: 1}
			}
			return cache.Plan{Replicas: 1} // whole program
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// plannerFunc adapts a function to the Planner stage interface.
type plannerFunc func(p trace.ProgramID, now time.Duration, def cache.Plan) cache.Plan

func (f plannerFunc) PlacementPlan(p trace.ProgramID, now time.Duration, def cache.Plan) cache.Plan {
	return f(p, now, def)
}

// TestPlanUpgradeDeepensPlacement: a program admitted under a shallow
// prefix is re-admitted whole once its popularity crosses the planner's
// threshold, when the cache has room.
func TestPlanUpgradeDeepensPlacement(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is, err := NewIndexServer(nb, upgradeTestPipeline(t), fixedLengths(10*time.Minute), ServerOptions{
		EnforceStreamLimit: true,
		Fill:               FillImmediate,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := is.OnSessionStart(1, 0)
	if !res.Admitted || len(mustPlacementSlots(t, is, 1)) != 1 {
		t.Fatalf("first touch: admitted=%v slots=%d, want shallow 1-segment admission",
			res.Admitted, len(mustPlacementSlots(t, is, 1)))
	}
	is.OnSessionStart(1, time.Hour)
	res = is.OnSessionStart(1, 2*time.Hour) // score 2 before this access: upgrade
	if !res.Admitted || len(mustPlacementSlots(t, is, 1)) != 2 {
		t.Fatalf("upgrade touch: admitted=%v slots=%d, want whole-program re-admission",
			res.Admitted, len(mustPlacementSlots(t, is, 1)))
	}
	if got := is.PlacedSegments(1); got != 2 {
		t.Errorf("placed segments after upgrade = %d, want 2", got)
	}
}

// TestPlanUpgradeRollback: when the deeper plan loses the victim
// comparison, the old footprint is restored untouched — the program
// stays cached, placed, and servable under its shallow plan.
func TestPlanUpgradeRollback(t *testing.T) {
	// 650 MB pooled: program 1 shallow (1 seg ~302 MB) + program 2
	// (5 min, ~302 MB) fit; program 1 whole (2 segs ~604 MB) does not
	// without evicting the more valuable program 2.
	nb := buildNeighborhood(t, 2, 325*units.MB)
	lengths := func(p trace.ProgramID) time.Duration {
		if p == 1 {
			return 10 * time.Minute
		}
		return 5 * time.Minute
	}
	is, err := NewIndexServer(nb, upgradeTestPipeline(t), lengths, ServerOptions{
		EnforceStreamLimit: true,
		Fill:               FillImmediate,
	})
	if err != nil {
		t.Fatal(err)
	}
	is.OnSessionStart(1, 0)  // program 1 admitted shallow
	for i := 0; i < 5; i++ { // program 2 admitted, score 5
		is.OnSessionStart(2, time.Duration(i+1)*time.Minute)
	}
	is.OnSessionStart(1, 30*time.Minute) // score 1: still shallow, plain hit
	usedBefore := is.Cache().Used()

	// Program 1's third access crosses the planner threshold (score 2
	// before the access): the whole-program footprint needs program 2's
	// bytes, but 2 outscores 1, so the upgrade is rejected.
	res := is.OnSessionStart(1, time.Hour)
	if res.Hit || res.Admitted || len(res.Evicted) != 0 {
		t.Fatalf("rejected upgrade reported hit=%v admitted=%v evicted=%v",
			res.Hit, res.Admitted, res.Evicted)
	}

	// The standing rejection is memoized: with the wanted footprint and
	// the cache contents unchanged, the next access is a plain hit, not
	// another evict-and-restore cycle.
	hitsBefore := is.Cache().Hits()
	if res := is.OnSessionStart(1, 2*time.Hour); !res.Hit {
		t.Errorf("memoized rejection access = %+v, want a plain hit", res)
	}
	if got := is.Cache().Hits(); got != hitsBefore+1 {
		t.Errorf("hits across memoized rejection = %d, want %d", got, hitsBefore+1)
	}
	if !is.Cache().Contains(1) || !is.Cache().Contains(2) {
		t.Fatalf("rollback lost a program: contains(1)=%v contains(2)=%v",
			is.Cache().Contains(1), is.Cache().Contains(2))
	}
	if got := is.Cache().Used(); got != usedBefore {
		t.Errorf("cache used changed across rejected upgrade: %v -> %v", usedBefore, got)
	}
	if got := is.PlacedSegments(1); got != 1 {
		t.Errorf("placed segments after rollback = %d, want the old shallow 1", got)
	}
	if out, _ := is.ServeSegment(1, 0); out != ServedByPeer {
		t.Errorf("segment 0 of rolled-back program not servable: %v", out)
	}
}
