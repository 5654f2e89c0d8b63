package core

// ProbeShards reads every shard's counters and event-queue cursors into
// the ShardState fields that carry them, in neighborhood order: the
// per-shard view the determinism harness (package core_test) checks its
// invariants against. Call it after a Snapshot has drained the shards.
func ProbeShards(s *System) []ShardState {
	out := make([]ShardState, len(s.shards))
	for i, sh := range s.shards {
		out[i].QueueNow, out[i].NextSeq, out[i].Executed = sh.queue.State()
		out[i].Counters = sh.counters
	}
	return out
}

// NarrowPlacements counts the placements narrower than their plan: a
// stride under the full one for their replicas, which a restore leaves
// where a segment held fewer copies than the plan at export. The
// determinism harness requires a restored plan that has one, so the
// widening path runs.
func NarrowPlacements(s *System) int {
	n := 0
	for _, sh := range s.shards {
		for k := range sh.is.placement {
			if pp := &sh.is.placement[k]; pp.replicas != 0 && int(pp.stride) < sh.is.fullStride(int(pp.replicas)) {
				n++
			}
		}
	}
	return n
}
