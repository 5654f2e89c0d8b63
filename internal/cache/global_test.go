package cache

import (
	"testing"
	"time"

	"cablevod/internal/trace"
)

func mustGlobal(t *testing.T, history, lag time.Duration) *Global {
	t.Helper()
	g, err := NewGlobal(history, lag)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// syncAt publishes a lagged feed where the engine would: before the
// first request at or past the next publication instant.
func syncAt(g *Global, now time.Duration) {
	if g.SyncNeeded(now) {
		g.Sync(now)
	}
}

func TestNewGlobalErrors(t *testing.T) {
	if _, err := NewGlobal(-time.Hour, 0); err == nil {
		t.Error("expected error for negative history")
	}
	if _, err := NewGlobal(time.Hour, -time.Second); err == nil {
		t.Error("expected error for negative lag")
	}
}

func TestGlobalLiveCountsSharedAcrossNeighborhoods(t *testing.T) {
	g := mustGlobal(t, 24*time.Hour, 0)
	a := newGlobalLFU(t, g)
	b := newGlobalLFU(t, g)

	ca := mustCache(t, 4*gb, a)
	cb := mustCache(t, 4*gb, b)

	// Neighborhood A sees heavy demand for program 1.
	ca.Access(1, 2*gb, 1*time.Second)
	ca.Access(1, 2*gb, 2*time.Second)
	ca.Access(1, 2*gb, 3*time.Second)
	// Neighborhood B has never seen program 1 locally, but its policy
	// must still value it globally: candidate 1 (count 3) displaces a
	// locally cached count-1 program.
	cb.Access(2, 2*gb, 4*time.Second)
	cb.Access(3, 2*gb, 5*time.Second)
	res := cb.Access(1, 2*gb, 6*time.Second)
	if !res.Admitted || len(res.Evicted) != 1 || res.Evicted[0] != 2 {
		t.Errorf("result = %+v, want admission evicting program 2", res)
	}
}

func TestGlobalLiveBucketUpdatesOnRemoteAccess(t *testing.T) {
	g := mustGlobal(t, 24*time.Hour, 0)
	a := newGlobalLFU(t, g)
	b := newGlobalLFU(t, g)
	ca := mustCache(t, 2*gb, a)
	cb := mustCache(t, 4*gb, b)

	cb.Access(1, 2*gb, 1*time.Second)
	cb.Access(2, 2*gb, 2*time.Second)
	// Remote accesses to program 1 from neighborhood A bump its global
	// count; B's victim must become program 2.
	ca.Access(1, 2*gb, 3*time.Second)
	ca.Access(1, 2*gb, 4*time.Second)

	var victims []trace.ProgramID
	b.EvictionOrder(func(p trace.ProgramID, _ int) bool {
		victims = append(victims, p)
		return true
	})
	if len(victims) != 2 || victims[0] != 2 {
		t.Errorf("victim order = %v, want program 2 first", victims)
	}
}

func TestGlobalLaggedSnapshot(t *testing.T) {
	g := mustGlobal(t, 24*time.Hour, 30*time.Minute)
	pol := newGlobalLFU(t, g)
	c := mustCache(t, 4*gb, pol)

	c.Access(1, 2*gb, time.Minute)
	c.Access(2, 2*gb, 2*time.Minute)
	// Before publication every count reads 0.
	if got := valueAt(pol, 1, 5*time.Minute); got != 0 {
		t.Errorf("pre-publication value = %d, want 0", got)
	}
	// After the 30-minute boundary the snapshot is visible.
	syncAt(g, 31*time.Minute)
	if got := valueAt(pol, 1, 31*time.Minute); got != 1 {
		t.Errorf("post-publication value = %d, want 1", got)
	}
	// Accesses after the boundary stay invisible until the next one.
	c.Access(1, 2*gb, 32*time.Minute)
	if got := valueAt(pol, 1, 40*time.Minute); got != 1 {
		t.Errorf("mid-batch value = %d, want 1", got)
	}
	syncAt(g, 61*time.Minute)
	if got := valueAt(pol, 1, 61*time.Minute); got != 2 {
		t.Errorf("after second publication = %d, want 2", got)
	}
}

func TestGlobalLaggedRebuildReordersVictims(t *testing.T) {
	g := mustGlobal(t, 24*time.Hour, 10*time.Minute)
	pol := newGlobalLFU(t, g)
	c := mustCache(t, 4*gb, pol)
	c.Access(1, 2*gb, 1*time.Minute)
	c.Access(2, 2*gb, 2*time.Minute)
	c.Access(2, 2*gb, 3*time.Minute)
	c.Access(2, 2*gb, 4*time.Minute)
	// Pre-publication both read 0; after the boundary program 1 (count 1)
	// must order before program 2 (count 3).
	syncAt(g, 11*time.Minute)
	pol.Advance(11 * time.Minute)
	var order []trace.ProgramID
	pol.EvictionOrder(func(p trace.ProgramID, _ int) bool {
		order = append(order, p)
		return true
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("victim order = %v, want [1 2]", order)
	}
}

func TestGlobalHistoryDecayAppliesGlobally(t *testing.T) {
	g := mustGlobal(t, time.Hour, 0)
	pol := newGlobalLFU(t, g)
	c := mustCache(t, 4*gb, pol)
	c.Access(1, 2*gb, 0)
	if got := valueAt(pol, 1, 30*time.Minute); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	if got := valueAt(pol, 1, 2*time.Hour); got != 0 {
		t.Errorf("expired count = %d, want 0", got)
	}
}

func TestGlobalUnsubscribeOnEvict(t *testing.T) {
	g := mustGlobal(t, 24*time.Hour, 0)
	pol := newGlobalLFU(t, g)
	c := mustCache(t, 2*gb, pol)
	c.Access(1, 2*gb, 1*time.Second)
	c.Access(2, 2*gb, 2*time.Second) // evicts 1 (tie admits)
	if c.Contains(1) {
		t.Fatal("program 1 should have been evicted")
	}
	if subs := g.subscribers[1]; len(subs) != 0 {
		t.Errorf("program 1 still has %d subscribers after eviction", len(subs))
	}
}
