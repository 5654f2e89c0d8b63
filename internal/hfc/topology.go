// Package hfc models the Hybrid Fiber-Coax cable plant of Section II: a
// cable operator connected over switched fiber to headends, each headend
// serving a coaxial broadcast neighborhood of subscriber set-top boxes.
//
// The package is purely structural plus bandwidth/storage accounting; the
// cooperative-caching behaviour lives in internal/core on top of it.
package hfc

import (
	"fmt"
	"slices"

	"cablevod/internal/randdist"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// PeerID identifies a set-top box as (neighborhood, index within it).
type PeerID struct {
	Neighborhood int
	Index        int
}

// String renders "n3/p17".
func (id PeerID) String() string {
	return fmt.Sprintf("n%d/p%d", id.Neighborhood, id.Index)
}

// Config describes the plant to build.
type Config struct {
	// NeighborhoodSize is the number of subscribers behind one headend.
	// Real deployments range between 100 and 1,000 (Section V-B).
	NeighborhoodSize int

	// PerPeerStorage is each set-top box's cache contribution.
	PerPeerStorage units.ByteSize

	// MaxStreamsPerPeer bounds concurrent streams per box (default 2).
	MaxStreamsPerPeer int

	// CoaxCapacity is the VoD-available bandwidth per neighborhood
	// (default: 6.6 Gb/s downstream minus the 3.3 Gb/s TV share).
	CoaxCapacity units.BitRate

	// PlacementSeed drives the uniform-at-random assignment of users to
	// neighborhoods. The paper keeps placement identical across runs
	// with the same neighborhood size; deriving the seed only from the
	// neighborhood size reproduces that behaviour.
	PlacementSeed uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxStreamsPerPeer == 0 {
		c.MaxStreamsPerPeer = DefaultMaxStreams
	}
	if c.CoaxCapacity == 0 {
		c.CoaxCapacity = DefaultCoaxCapacity
	}
	if c.PerPeerStorage == 0 {
		c.PerPeerStorage = DefaultPerPeerStorage
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.NeighborhoodSize <= 0:
		return fmt.Errorf("hfc: neighborhood size must be positive, got %d", c.NeighborhoodSize)
	case c.PerPeerStorage < 0:
		return fmt.Errorf("hfc: negative per-peer storage %v", c.PerPeerStorage)
	case c.MaxStreamsPerPeer <= 0:
		return fmt.Errorf("hfc: max streams must be positive, got %d", c.MaxStreamsPerPeer)
	case c.CoaxCapacity <= 0:
		return fmt.Errorf("hfc: coax capacity must be positive, got %v", c.CoaxCapacity)
	default:
		return nil
	}
}

// Neighborhood is one coaxial segment: a headend, its subscriber boxes,
// and the shared broadcast channel.
type Neighborhood struct {
	id    int
	peers []*SetTopBox
	coax  *Coax
	// A subscriber's box index is found in one of two forms, as
	// Topology's homing is: the topology-wide dense tables (shared
	// across neighborhoods) for a dense population, else users, which
	// maps each of this neighborhood's subscribers to their box index.
	homeIdx []int32
	peerIdx []int32
	users   map[trace.UserID]int
}

// ID returns the neighborhood index.
func (n *Neighborhood) ID() int { return n.id }

// Size returns the number of subscriber boxes.
func (n *Neighborhood) Size() int { return len(n.peers) }

// Coax returns the shared broadcast channel.
func (n *Neighborhood) Coax() *Coax { return n.coax }

// Peer returns the i-th set-top box.
func (n *Neighborhood) Peer(i int) *SetTopBox { return n.peers[i] }

// Peers returns all boxes (shared slice; do not mutate).
func (n *Neighborhood) Peers() []*SetTopBox { return n.peers }

// PeerOf returns the box of the given subscriber.
func (n *Neighborhood) PeerOf(u trace.UserID) (*SetTopBox, bool) {
	if n.homeIdx != nil {
		if u < 0 || int(u) >= len(n.homeIdx) || n.homeIdx[u] != int32(n.id) {
			return nil, false
		}
		return n.peers[n.peerIdx[u]], true
	}
	i, ok := n.users[u]
	if !ok {
		return nil, false
	}
	return n.peers[i], true
}

// TotalCacheCapacity returns the pooled storage of all boxes — what the
// index server understands the total cache size to be (Section IV-B.3).
func (n *Neighborhood) TotalCacheCapacity() units.ByteSize {
	var total units.ByteSize
	for _, p := range n.peers {
		total += p.StorageCapacity()
	}
	return total
}

// Topology is the full plant: every neighborhood plus the user homing,
// in one of two forms chosen by the population. Homing runs three times
// per submitted record, so a dense population (IDs non-negative and
// below four times its count, as synth traces and universe tiers
// generate) gets dense tables: homeIdx[u] is u's neighborhood (-1 for
// an absent ID) and peerIdx[u] the box index within it, two array
// reads shared by every neighborhood. A sparse population gets maps
// instead, home here and users in each neighborhood, rather than pay
// for mostly-empty tables. Never both.
type Topology struct {
	cfg           Config
	neighborhoods []*Neighborhood
	subscribers   int
	homeIdx       []int32
	peerIdx       []int32
	home          map[trace.UserID]int
}

// Build constructs the plant for the given subscriber population,
// assigning users to fixed-size neighborhoods uniformly at random
// (deterministically per config, Section V-B). A subscriber listed
// twice is an error.
func Build(cfg Config, usersList []trace.UserID) (*Topology, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(usersList) == 0 {
		return nil, fmt.Errorf("hfc: no subscribers to place")
	}

	// Deterministic shuffle of the sorted population: the seed depends
	// on the placement seed and the neighborhood size only, so
	// equal-size runs share placement. The sort also shows duplicates,
	// as equal neighbours, and the ID range that decides the homing
	// form.
	shuffled := slices.Clone(usersList)
	slices.Sort(shuffled)
	for i := 1; i < len(shuffled); i++ {
		if shuffled[i] == shuffled[i-1] {
			return nil, fmt.Errorf("hfc: duplicate subscriber %d in the population", shuffled[i])
		}
	}
	n := len(shuffled)
	dense := shuffled[0] >= 0 && int64(shuffled[n-1]) < 4*int64(n)
	topo := &Topology{cfg: cfg, subscribers: n}
	if dense {
		topo.homeIdx = make([]int32, int(shuffled[n-1])+1)
		topo.peerIdx = make([]int32, len(topo.homeIdx))
		for i := range topo.homeIdx {
			topo.homeIdx[i] = -1
		}
	} else {
		topo.home = make(map[trace.UserID]int, n)
	}
	rng := randdist.NewRNG(cfg.PlacementSeed, uint64(cfg.NeighborhoodSize))
	rng.Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	count := (n + cfg.NeighborhoodSize - 1) / cfg.NeighborhoodSize
	topo.neighborhoods = make([]*Neighborhood, 0, count)
	for ni := 0; ni < count; ni++ {
		members := shuffled[ni*cfg.NeighborhoodSize : min((ni+1)*cfg.NeighborhoodSize, n)]
		coax, err := NewCoax(cfg.CoaxCapacity)
		if err != nil {
			return nil, err
		}
		nb := &Neighborhood{
			id:      ni,
			peers:   make([]*SetTopBox, 0, len(members)),
			coax:    coax,
			homeIdx: topo.homeIdx,
			peerIdx: topo.peerIdx,
		}
		if !dense {
			nb.users = make(map[trace.UserID]int, len(members))
		}
		for pi, u := range members {
			box, err := NewSetTopBox(PeerID{Neighborhood: ni, Index: pi}, cfg.PerPeerStorage, cfg.MaxStreamsPerPeer)
			if err != nil {
				return nil, err
			}
			nb.peers = append(nb.peers, box)
			if dense {
				topo.homeIdx[u], topo.peerIdx[u] = int32(ni), int32(pi)
			} else {
				nb.users[u] = pi
				topo.home[u] = ni
			}
		}
		topo.neighborhoods = append(topo.neighborhoods, nb)
	}
	return topo, nil
}

// Config returns the (defaulted) configuration the plant was built with.
func (t *Topology) Config() Config { return t.cfg }

// Neighborhoods returns all neighborhoods (shared slice; do not mutate).
func (t *Topology) Neighborhoods() []*Neighborhood { return t.neighborhoods }

// NeighborhoodCount returns the number of headends.
func (t *Topology) NeighborhoodCount() int { return len(t.neighborhoods) }

// Home returns the neighborhood of a subscriber.
func (t *Topology) Home(u trace.UserID) (*Neighborhood, bool) {
	if t.homeIdx != nil {
		if u < 0 || int(u) >= len(t.homeIdx) || t.homeIdx[u] < 0 {
			return nil, false
		}
		return t.neighborhoods[t.homeIdx[u]], true
	}
	ni, ok := t.home[u]
	if !ok {
		return nil, false
	}
	return t.neighborhoods[ni], true
}

// Subscribers returns the total subscriber count.
func (t *Topology) Subscribers() int { return t.subscribers }
