package hfc

import (
	"strings"
	"testing"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

func userRange(n int) []trace.UserID {
	out := make([]trace.UserID, n)
	for i := range out {
		out[i] = trace.UserID(i)
	}
	return out
}

func TestBuildPartitionsAllUsers(t *testing.T) {
	topo, err := Build(Config{NeighborhoodSize: 100}, userRange(1050))
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.NeighborhoodCount(); got != 11 {
		t.Errorf("neighborhoods = %d, want 11", got)
	}
	if topo.Subscribers() != 1050 {
		t.Errorf("subscribers = %d, want 1050", topo.Subscribers())
	}
	// Every user homed exactly once, one box created per user.
	seen := 0
	for _, nb := range topo.Neighborhoods() {
		seen += nb.Size()
		if nb.Size() > 100 {
			t.Errorf("neighborhood %d has %d peers, want <= 100", nb.ID(), nb.Size())
		}
	}
	if seen != 1050 {
		t.Errorf("boxes = %d, want 1050", seen)
	}
	checkHoming(t, topo, userRange(1050))
}

// checkHoming asserts that every user is homed in a neighborhood that
// has a box for them, and that no two users share a box.
func checkHoming(t *testing.T, topo *Topology, users []trace.UserID) {
	t.Helper()
	owner := map[PeerID]trace.UserID{}
	for _, u := range users {
		home, ok := topo.Home(u)
		if !ok {
			t.Fatalf("user %d not homed", u)
		}
		box, ok := home.PeerOf(u)
		if !ok {
			t.Fatalf("user %d has no box", u)
		}
		if box.ID().Neighborhood != home.ID() {
			t.Fatalf("user %d homed in %d has box %v", u, home.ID(), box.ID())
		}
		if other, dup := owner[box.ID()]; dup {
			t.Fatalf("users %d and %d share box %v", other, u, box.ID())
		}
		owner[box.ID()] = u
	}
}

// TestBuildSparsePopulation: a population with IDs far beyond its count
// is homed through maps, with the same guarantees and unknown IDs
// (negative, or inside the ID range) not homed.
func TestBuildSparsePopulation(t *testing.T) {
	users := []trace.UserID{-7, 3, 1_000_000, 42, 99_999}
	topo, err := Build(Config{NeighborhoodSize: 2}, users)
	if err != nil {
		t.Fatal(err)
	}
	if topo.homeIdx != nil || topo.home == nil {
		t.Fatal("sparse population homed through dense tables")
	}
	if topo.Subscribers() != len(users) || topo.NeighborhoodCount() != 3 {
		t.Errorf("subscribers = %d in %d neighborhoods, want 5 in 3", topo.Subscribers(), topo.NeighborhoodCount())
	}
	checkHoming(t, topo, users)
	for _, u := range []trace.UserID{-1, 4, 500_000} {
		if _, ok := topo.Home(u); ok {
			t.Errorf("unknown user %d homed", u)
		}
	}
}

// TestBuildRejectsDuplicates: a subscriber listed twice is named.
func TestBuildRejectsDuplicates(t *testing.T) {
	_, err := Build(Config{NeighborhoodSize: 10}, []trace.UserID{4, 2, 9, 2})
	if err == nil || !strings.Contains(err.Error(), "duplicate subscriber 2") {
		t.Errorf("err = %v, want the duplicate named", err)
	}
}

func TestBuildDeterministicPerSize(t *testing.T) {
	users := userRange(500)
	a, err := Build(Config{NeighborhoodSize: 100}, users)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{NeighborhoodSize: 100}, users)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		na, _ := a.Home(u)
		nb, _ := b.Home(u)
		if na.ID() != nb.ID() {
			t.Fatalf("user %d placed differently across identical builds", u)
		}
	}
	// A different size produces a different (but still deterministic)
	// placement.
	c, err := Build(Config{NeighborhoodSize: 250}, users)
	if err != nil {
		t.Fatal(err)
	}
	if c.NeighborhoodCount() != 2 {
		t.Errorf("neighborhoods = %d, want 2", c.NeighborhoodCount())
	}
}

func TestBuildDefaults(t *testing.T) {
	topo, err := Build(Config{NeighborhoodSize: 10}, userRange(10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := topo.Config()
	if cfg.MaxStreamsPerPeer != DefaultMaxStreams {
		t.Errorf("MaxStreamsPerPeer = %d", cfg.MaxStreamsPerPeer)
	}
	if cfg.CoaxCapacity != DefaultCoaxCapacity {
		t.Errorf("CoaxCapacity = %v", cfg.CoaxCapacity)
	}
	if cfg.PerPeerStorage != DefaultPerPeerStorage {
		t.Errorf("PerPeerStorage = %v", cfg.PerPeerStorage)
	}
	nb := topo.Neighborhoods()[0]
	if got := nb.TotalCacheCapacity(); got != 100*units.GB {
		t.Errorf("TotalCacheCapacity = %v, want 100 GB", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{NeighborhoodSize: 0}, userRange(5)); err == nil {
		t.Error("expected error for zero neighborhood size")
	}
	if _, err := Build(Config{NeighborhoodSize: 10}, nil); err == nil {
		t.Error("expected error for empty population")
	}
	if _, err := Build(Config{NeighborhoodSize: 10, PerPeerStorage: -1}, userRange(5)); err == nil {
		t.Error("expected error for negative storage")
	}
}

func TestHomeUnknownUser(t *testing.T) {
	topo, err := Build(Config{NeighborhoodSize: 10}, userRange(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.Home(999); ok {
		t.Error("unknown user reported as homed")
	}
	nb := topo.Neighborhoods()[0]
	if _, ok := nb.PeerOf(999); ok {
		t.Error("unknown user has a box")
	}
}

func TestPeerIDString(t *testing.T) {
	id := PeerID{Neighborhood: 3, Index: 17}
	if got := id.String(); got != "n3/p17" {
		t.Errorf("String() = %q", got)
	}
}

func TestPlacementRoughlyUniform(t *testing.T) {
	// With 10k users in 10 neighborhoods of 1000, every neighborhood is
	// exactly full; check users are spread (not sorted runs).
	topo, err := Build(Config{NeighborhoodSize: 1000}, userRange(10_000))
	if err != nil {
		t.Fatal(err)
	}
	// If placement were identity order, neighborhood 0 would hold users
	// 0..999. Shuffled placement should include high IDs.
	high := 0
	for u := trace.UserID(5000); u < 10_000; u++ {
		if nb, _ := topo.Home(u); nb.ID() == 0 {
			high++
		}
	}
	if high < 300 || high > 700 {
		t.Errorf("neighborhood 0 has %d/1000 users from the top half, want ~500", high)
	}
}
