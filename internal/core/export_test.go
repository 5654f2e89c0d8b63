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
