package core

import (
	"fmt"
	"sort"
	"time"

	"cablevod/internal/eventq"
	"cablevod/internal/hfc"
	"cablevod/internal/segment"
	"cablevod/internal/units"
)

// DisruptionKind enumerates the engine's supply-side disruption
// primitives. Higher-level fault models (a ramped node failure, a
// heterogeneous fleet) compile down to sequences of these; the engine
// itself only knows how to re-provision capacity and wipe caches.
type DisruptionKind int

const (
	// DisruptPeerCapacities re-provisions every set-top box's storage
	// contribution in one neighborhood (or all). Programs that no longer
	// fit the pooled capacity are evicted in policy order; placed copies
	// on over-capacity boxes are shed.
	DisruptPeerCapacities DisruptionKind = iota + 1
	// DisruptColdRestart wipes a neighborhood's cache contents and
	// placements. Popularity meters and counters survive — the model is
	// a software restart losing volatile cache state, not amnesia.
	DisruptColdRestart
	// DisruptCoaxCapacity re-provisions the VoD-available coax bandwidth.
	// In-flight broadcasts drain naturally; only new admissions see the
	// new limit.
	DisruptCoaxCapacity
)

// String names the kind.
func (k DisruptionKind) String() string {
	switch k {
	case DisruptPeerCapacities:
		return "peer-capacities"
	case DisruptColdRestart:
		return "cold-restart"
	case DisruptCoaxCapacity:
		return "coax-capacity"
	default:
		return fmt.Sprintf("disruption(%d)", int(k))
	}
}

// Disruption is one scheduled change to the plant's supply side. The
// engine applies it deterministically at time At: every affected shard's
// event queue is drained strictly before (At, PriorityControl) first, so
// results are bit-identical at every parallelism level and across a
// snapshot/restore cycle (pending disruptions are serialized).
type Disruption struct {
	// At is the absolute virtual time the disruption takes effect.
	At time.Duration
	// Kind selects the primitive.
	Kind DisruptionKind
	// Neighborhood is the affected neighborhood, or -1 for all.
	Neighborhood int
	// PeerCapacities is the new storage contribution per box, in peer
	// order (DisruptPeerCapacities; length must equal the neighborhood
	// size).
	PeerCapacities []units.ByteSize
	// CoaxCapacity is the new VoD-available bandwidth
	// (DisruptCoaxCapacity).
	CoaxCapacity units.BitRate
}

// Validate checks the disruption against a built plant.
func (d Disruption) Validate(topo *hfc.Topology) error {
	if d.At < 0 {
		return fmt.Errorf("core: disruption at negative time %v", d.At)
	}
	if d.Neighborhood < -1 || d.Neighborhood >= topo.NeighborhoodCount() {
		return fmt.Errorf("core: disruption names neighborhood %d of %d", d.Neighborhood, topo.NeighborhoodCount())
	}
	switch d.Kind {
	case DisruptPeerCapacities:
		nbs := topo.Neighborhoods()
		if d.Neighborhood >= 0 {
			nbs = nbs[d.Neighborhood : d.Neighborhood+1]
		}
		for _, nb := range nbs {
			if len(d.PeerCapacities) != len(nb.Peers()) {
				return fmt.Errorf("core: disruption carries %d peer capacities for neighborhood %d with %d boxes",
					len(d.PeerCapacities), nb.ID(), len(nb.Peers()))
			}
		}
		for i, c := range d.PeerCapacities {
			if c < 0 {
				return fmt.Errorf("core: disruption sets negative capacity %v on box %d", c, i)
			}
		}
	case DisruptColdRestart:
	case DisruptCoaxCapacity:
		if d.CoaxCapacity <= 0 {
			return fmt.Errorf("core: disruption sets non-positive coax capacity %v", d.CoaxCapacity)
		}
	default:
		return fmt.Errorf("core: unknown disruption kind %d", int(d.Kind))
	}
	return nil
}

// Disruptor is the seam higher layers use to contribute scheduled
// disruptions to a run: anything that can compile itself against the
// built plant. The adversity package's fault models implement it.
type Disruptor interface {
	// Disruptions compiles the concrete schedule for the given plant and
	// run configuration.
	Disruptions(topo *hfc.Topology, cfg Config) ([]Disruption, error)
}

// Disrupt compiles a Disruptor against the engine's plant and schedules
// the resulting disruptions.
func (s *System) Disrupt(d Disruptor) error {
	if d == nil {
		return fmt.Errorf("core: nil disruptor")
	}
	ds, err := d.Disruptions(s.topo, s.cfg)
	if err != nil {
		return err
	}
	return s.ScheduleDisruptions(ds)
}

// ScheduleDisruptions validates and schedules disruptions. Each takes
// effect just before the first record submitted at or after its time
// (remaining ones apply during Close). Scheduling before the engine's
// last submitted record fails — like records, disruptions only move
// forward in time. Within one instant, disruptions apply in the order
// they were scheduled.
func (s *System) ScheduleDisruptions(ds []Disruption) error {
	if s.closed {
		return fmt.Errorf("core: schedule disruptions on closed system")
	}
	for i, d := range ds {
		if err := d.Validate(s.topo); err != nil {
			return fmt.Errorf("core: disruption %d: %w", i, err)
		}
		if s.submitted > 0 && d.At < s.lastStart {
			return fmt.Errorf("core: disruption %d at %v before engine time %v", i, d.At, s.lastStart)
		}
	}
	s.disruptions = append(s.disruptions, ds...)
	sort.SliceStable(s.disruptions, func(i, j int) bool {
		return s.disruptions[i].At < s.disruptions[j].At
	})
	return nil
}

// PendingDisruptions returns the not-yet-applied disruption schedule in
// application order.
func (s *System) PendingDisruptions() []Disruption {
	return append([]Disruption(nil), s.disruptions...)
}

// disruptionDue reports whether a pending disruption must apply before a
// record at time next is processed.
func (s *System) disruptionDue(next time.Duration) bool {
	return len(s.disruptions) > 0 && s.disruptions[0].At <= next
}

// applyDisruptionsDue pops and applies every pending disruption at or
// before next. Callers guarantee no shard worker is running.
func (s *System) applyDisruptionsDue(next time.Duration) {
	for len(s.disruptions) > 0 && s.disruptions[0].At <= next {
		d := s.disruptions[0]
		s.disruptions = s.disruptions[1:]
		s.applyDisruption(d)
	}
}

// applyDisruption drains the affected shards to the disruption instant
// and applies it. The drain runs on the worker pool (queued events never
// touch strategy state); the mutation itself is serial per shard.
func (s *System) applyDisruption(d Disruption) {
	affected := s.shards
	if d.Neighborhood >= 0 {
		affected = s.shards[d.Neighborhood : d.Neighborhood+1]
	}
	s.forShards(affected, func(sh *shard) {
		sh.queue.RunBefore(d.At, eventq.PriorityControl)
	})
	for _, sh := range affected {
		sh.applyDisruption(d)
	}
}

// applyDisruption applies one disruption to this shard. The queue has
// been drained to the disruption instant.
func (sh *shard) applyDisruption(d Disruption) {
	switch d.Kind {
	case DisruptPeerCapacities:
		sh.counters.Evictions += uint64(sh.is.ApplyPeerCapacities(d.PeerCapacities))
	case DisruptColdRestart:
		sh.counters.Evictions += uint64(sh.is.ColdRestart())
	case DisruptCoaxCapacity:
		if err := sh.nb.Coax().SetCapacity(d.CoaxCapacity); err != nil {
			panic(err) // validated at schedule time
		}
	}
}

// ApplyPeerCapacities re-provisions every box's storage contribution and
// reconciles the cooperative cache with the new supply: the pooled cache
// shrinks (or grows) to the new total, evicting the least valuable
// programs when contents no longer fit, and placed copies still sitting
// on over-capacity boxes are shed until each box fits again. It returns
// the number of programs evicted.
func (is *IndexServer) ApplyPeerCapacities(caps []units.ByteSize) int {
	peers := is.nb.Peers()
	for i, peer := range peers {
		if err := peer.SetStorageCapacity(caps[i]); err != nil {
			panic(err) // validated at schedule time
		}
	}
	// Re-provisioning can grow free space on any box; failed-placement
	// memos no longer apply.
	is.fillSpaceFreed()

	// Shrink the pooled cache first: whole-program evictions release
	// their placements and may already bring shrunken boxes back under
	// capacity.
	victims, err := is.cache.SetCapacity(is.nb.TotalCacheCapacity())
	if err != nil {
		panic(err) // capacity is a sum of validated non-negatives
	}
	for _, v := range victims {
		is.releasePlacement(is.cache.Key(v))
	}

	// Shed remaining copies from boxes still over capacity, program by
	// program in sorted order (deterministic), segments ascending. A
	// program losing copies stays cached — its unplaced segments miss to
	// the central server until churn re-places them.
	shed := false
	if is.anyPeerOverCapacity() {
		for _, k := range is.placedKeys() {
			pp := &is.placement[k]
			length := is.lengths(is.cache.Program(k))
			for idx := range pp.segs() {
				size := segment.SizeOf(length, idx)
				copies := pp.copies(idx)
				kept := copies[:0]
				for _, pi := range copies {
					peer := peers[pi]
					if peer.StorageUsed() > peer.StorageCapacity() {
						peer.Release(size)
						shed = true
						continue
					}
					kept = append(kept, pi)
				}
				pp.segment(idx)[0] = int32(len(kept))
			}
		}
	}
	if len(victims) > 0 || shed {
		is.generation++
	}
	return len(victims)
}

func (is *IndexServer) anyPeerOverCapacity() bool {
	for _, peer := range is.nb.Peers() {
		if peer.StorageUsed() > peer.StorageCapacity() {
			return true
		}
	}
	return false
}

// ColdRestart wipes the neighborhood's cache: every cached program is
// evicted and its placements released, as if the index server restarted
// with empty volatile state. Popularity history (the policy's meters)
// and counters survive. It returns the number of programs wiped.
func (is *IndexServer) ColdRestart() int {
	progs := is.cache.Contents()
	for _, p := range progs {
		is.cache.Evict(p)
		is.releasePlacement(is.cache.Key(p))
	}
	if len(progs) > 0 {
		is.generation++
	}
	return len(progs)
}
