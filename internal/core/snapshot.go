package core

import (
	"fmt"
	"math"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/eventq"
	"cablevod/internal/metrics"
	"cablevod/internal/segment"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// SnapshotVersion is the version of the state schema: the state types
// below and what their fields mean. Bump it on any change to them.
// SystemState.Version carries it, so StateDigest hashes it, and
// ReadState and RestoreSystem reject any other. The layout of a state
// file has a version of its own, in the file's header line (see
// snapshotio.go). v2 split the state into a head and one part per
// shard, bounding the encoder's in-memory buffer at mega scale. v3 added
// the fused broadcast-end event kind to the pending events.
const SnapshotVersion = 3

// SystemState is the complete serialized state of a running System: the
// workload and configuration to rebuild the plant and strategies, plus
// every shard's live state. A restored System continues the run
// bit-identically to one that was never interrupted (the snapshot
// determinism contract, enforced by TestDeterminism's checkpoint and
// fork transformations).
//
// Snapshots are taken between submissions: pending mailboxes are empty
// and every shard is drained to the last submitted record's start.
type SystemState struct {
	// Version is the state schema version (SnapshotVersion).
	Version int

	// Config is the resolved run configuration.
	Config Config

	// Users, Lengths and Future are the workload the engine was built
	// from. The plant is deterministic from (Config.Topology, Users), so
	// topology is rebuilt, not serialized.
	Users   []trace.UserID
	Lengths map[trace.ProgramID]time.Duration
	Future  []trace.Record

	// Submitted and LastStart are the coordinator's ingest counters.
	Submitted int
	LastStart time.Duration

	// Disruptions is the not-yet-applied disruption schedule; a restored
	// engine re-arms it automatically.
	Disruptions []Disruption

	// Shards is the per-neighborhood state, in neighborhood order.
	Shards []ShardState
}

// At returns the virtual time the snapshot was taken at.
func (st *SystemState) At() time.Duration { return st.LastStart }

// Strategy returns the snapshot's strategy name.
func (st *SystemState) Strategy() string { return st.Config.strategyName() }

// TotalCounters sums the per-shard event counters.
func (st *SystemState) TotalCounters() Counters {
	var c Counters
	for _, sh := range st.Shards {
		c.Add(sh.Counters)
	}
	return c
}

// TotalBits sums central-server and demand-baseline bits transferred up
// to the snapshot — the baseline for measuring what happened after a
// fork.
func (st *SystemState) TotalBits() (server, demand int64) {
	for _, sh := range st.Shards {
		for _, b := range sh.ServerBuckets {
			server += b
		}
		for _, b := range sh.DemandBuckets {
			demand += b
		}
	}
	return server, demand
}

// ShardState is one neighborhood's serialized slice of the engine.
type ShardState struct {
	// Neighborhood is the shard (= neighborhood) index.
	Neighborhood int

	// QueueNow, NextSeq and Executed are the event queue's clock and
	// counters; Events are its pending events in execution order.
	// Sessions are the in-flight sessions the events reference.
	QueueNow time.Duration
	NextSeq  uint64
	Executed uint64
	Events   []EventState
	Sessions []SessionState

	// Active is the number of in-flight sessions.
	Active int

	// Counters are the shard's running event totals.
	Counters Counters

	// ServerBuckets, DemandBuckets and CoaxBuckets are the rate meters'
	// absolute-hour bit buckets.
	ServerBuckets map[int64]int64
	DemandBuckets map[int64]int64
	CoaxBuckets   map[int64]int64

	// ObsHour and ObsServerRate are the collector's memoized
	// previous-hour server reading (see shard).
	ObsHour       int64
	ObsServerRate units.BitRate

	// Peers is the per-box live state, in peer order; Coax the channel's.
	Peers []PeerState
	Coax  CoaxState

	// Index is the index server's state: cache contents, policy state,
	// and segment placements.
	Index IndexState
}

// EventState is one pending queue event: the schedule row plus the
// event's kind and its references, by index (Session into
// ShardState.Sessions, Peer into the neighborhood's peer order; -1 when
// the kind carries none).
type EventState struct {
	At      time.Duration
	Prio    int
	Seq     uint64
	Kind    uint8
	Session int
	Peer    int
}

// SessionState is one in-flight session. Playback length is catalog
// data, rebuilt on restore.
type SessionState struct {
	Rec        trace.Record
	FirstFetch bool
}

// PeerState is one set-top box's live state. Capacity is serialized
// because disruptions re-provision boxes individually at run time.
type PeerState struct {
	Capacity units.ByteSize
	Used     units.ByteSize
	Active   int
}

// CoaxState is one coax channel's live state.
type CoaxState struct {
	Capacity units.BitRate
	Rate     units.BitRate
	Active   int
	Peak     units.BitRate
}

// IndexState is one index server's serialized state.
type IndexState struct {
	// Entries are the cached programs with charged sizes, in eviction
	// order.
	Entries []cache.Entry
	// Policy is the strategy's opaque serialized decision state.
	Policy []byte
	// Hits and Misses are the cache counters.
	Hits, Misses uint64
	// Generation and FillCursor are the server's placement cursors.
	Generation uint64
	FillCursor int
	// Placements are the per-program segment placements, sorted by
	// program.
	Placements []PlacementState
}

// PlacementState is one cached program's segment placement: for each
// cached segment, the peers (by index) holding a copy, plus the plan and
// the memoized rejected upgrade.
type PlacementState struct {
	Program      trace.ProgramID
	Replicas     int
	Slots        [][]int
	RejectedSegs int
	RejectedReps int
	RejectedGen  uint64
}

// StateSink receives an engine state one part at a time: first the head
// (the state with Shards nil) and the number of shards, then each shard
// in neighborhood order. A part is valid only during the call that hands
// it over: Checkpoint reuses a shard's memory for the next shard's, and
// shares the head's user list with the live engine. A sink must not
// modify the parts it is given, nor keep them past the call.
type StateSink interface {
	Head(head *SystemState, shards int) error
	Shard(sh *ShardState) error
}

// Stream hands the state to sink part by part, as a live engine's
// export does.
func (st *SystemState) Stream(sink StateSink) error {
	head := *st
	head.Shards = nil
	if err := sink.Head(&head, len(st.Shards)); err != nil {
		return err
	}
	for i := range st.Shards {
		if err := sink.Shard(&st.Shards[i]); err != nil {
			return err
		}
	}
	return nil
}

// streamState exports the engine's live state to sink one shard at a
// time: each shard is exported, handed to sink and dropped before the
// next. ExportState and Checkpoint are built on it. With reuse, every
// shard is exported into the memory of the one before, and the head
// shares the engine's user list, so the parts are valid only during the
// sink's calls; without it, the parts own their memory.
func (s *System) streamState(sink StateSink, reuse bool) error {
	if s.closed {
		return fmt.Errorf("core: export of closed system")
	}
	s.flush()
	users := s.users
	if !reuse || len(users) == 0 {
		users = append([]trace.UserID(nil), users...) // nil when empty, as always
	}
	head := &SystemState{
		Version:     SnapshotVersion,
		Config:      s.cfg,
		Users:       users,
		Lengths:     s.lengthTable,
		Future:      s.future,
		Submitted:   s.submitted,
		LastStart:   s.lastStart,
		Disruptions: append([]Disruption(nil), s.disruptions...),
	}
	if err := sink.Head(head, len(s.shards)); err != nil {
		return err
	}
	x := new(exportScratch)
	for i, sh := range s.shards {
		if !reuse && i > 0 {
			x = new(exportScratch)
		}
		ss, err := sh.exportState(x)
		if err != nil {
			return fmt.Errorf("core: neighborhood %d: %w", i, err)
		}
		if err := sink.Shard(&ss); err != nil {
			return err
		}
	}
	return nil
}

// ExportState serializes the engine's complete live state into one
// value. The engine keeps running — exporting is read-only apart from
// draining shards to the last submitted record (exactly what Snapshot
// does).
//
// Strategies whose decision state cannot be serialized (global-lfu's
// live cross-neighborhood feed) fail with a descriptive error.
func (s *System) ExportState() (*SystemState, error) {
	var c stateCollector
	if err := s.streamState(&c, false); err != nil {
		return nil, err
	}
	return c.st, nil
}

// stateCollector assembles a streamed state into one SystemState.
type stateCollector struct{ st *SystemState }

func (c *stateCollector) Head(head *SystemState, shards int) error {
	st := *head
	st.Shards = make([]ShardState, 0, shards)
	c.st = &st
	return nil
}

func (c *stateCollector) Shard(sh *ShardState) error {
	c.st.Shards = append(c.st.Shards, *sh)
	return nil
}

// exportScratch is the memory a shard's export cuts its slices, meter
// maps and policy blob from, plus the session index it dedupes sessions
// with. A fresh one gives a shard memory of its own; one reused from
// shard to shard makes an export's garbage that of a single shard.
type exportScratch struct {
	sessIdx    map[*session]int
	meters     [3]map[int64]int64
	pending    []eventq.PendingEvent
	policy     []byte
	events     []EventState
	sessions   []SessionState
	peers      []PeerState
	entries    []cache.Entry
	keys       []placedKey
	placements []PlacementState
	rows       [][]int
	cells      []int
}

// reuseSlice returns s emptied with room for n elements: s's own array
// when it has the room, else a new one, of exactly n when s had none
// (a fresh scratch sizes a shard's slices exactly) and at least twice
// s's capacity otherwise. It is never nil.
func reuseSlice[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, 0, max(n, 2*cap(s)))
	}
	return s[:0]
}

// nilIfEmpty returns nil for an empty s: an exported slice of nothing
// is nil, as the digest and the file have always carried it.
func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func (sh *shard) exportState(x *exportScratch) (ShardState, error) {
	now, nextSeq, executed := sh.queue.State()
	x.meters[0] = sh.serverMeter.BucketsInto(x.meters[0])
	x.meters[1] = sh.demandMeter.BucketsInto(x.meters[1])
	x.meters[2] = sh.coaxMeter.BucketsInto(x.meters[2])
	st := ShardState{
		Neighborhood:  sh.nb.ID(),
		QueueNow:      now,
		NextSeq:       nextSeq,
		Executed:      executed,
		Active:        sh.active,
		Counters:      sh.counters,
		ServerBuckets: x.meters[0],
		DemandBuckets: x.meters[1],
		CoaxBuckets:   x.meters[2],
		ObsHour:       sh.obsHour,
		ObsServerRate: sh.obsServerRate,
	}

	// Pending events, with sessions deduplicated into a side table: a
	// session's end event and its next segment event reference the same
	// session value and must keep doing so after a restore.
	if x.sessIdx == nil {
		x.sessIdx = make(map[*session]int)
	} else {
		clear(x.sessIdx)
	}
	pending := sh.queue.AppendPending(reuseSlice(x.pending, sh.queue.Len()))
	x.pending = pending
	events, sessions := reuseSlice(x.events, len(pending)), reuseSlice(x.sessions, 0)
	ends := 0
	for _, pe := range pending {
		se, ok := pe.Ev.(*shardEvent)
		if !ok {
			return st, fmt.Errorf("unserializable event type %T on the queue", pe.Ev)
		}
		es := EventState{At: pe.At, Prio: int(pe.Prio), Seq: pe.Seq, Kind: uint8(se.kind), Session: -1, Peer: -1}
		if se.sess != nil {
			idx, seen := x.sessIdx[se.sess]
			if !seen {
				idx = len(sessions)
				x.sessIdx[se.sess] = idx
				sessions = append(sessions, SessionState{Rec: se.sess.rec, FirstFetch: se.sess.firstFetch})
			}
			es.Session = idx
		}
		if se.peer != nil {
			es.Peer = se.peer.ID().Index
		}
		if se.kind == evSessionEnd {
			ends++
		}
		events = append(events, es)
	}
	x.events, x.sessions = events, sessions
	st.Events, st.Sessions = nilIfEmpty(events), nilIfEmpty(sessions)
	// Every in-flight session is discoverable from its pending end event
	// (segment events are only scheduled strictly before the session
	// end), so the counts must agree.
	if ends != sh.active {
		return st, fmt.Errorf("engine invariant broken: %d pending session ends for %d active sessions", ends, sh.active)
	}

	peers := reuseSlice(x.peers, len(sh.nb.Peers()))
	for _, peer := range sh.nb.Peers() {
		peers = append(peers, PeerState{
			Capacity: peer.StorageCapacity(),
			Used:     peer.StorageUsed(),
			Active:   peer.ActiveStreams(),
		})
	}
	x.peers = peers
	st.Peers = nilIfEmpty(peers)
	coax := sh.nb.Coax()
	st.Coax = CoaxState{Capacity: coax.Capacity(), Rate: coax.Rate(), Active: coax.Active(), Peak: coax.PeakRate()}

	var err error
	st.Index, err = sh.is.exportState(x)
	return st, err
}

func (is *IndexServer) exportState(x *exportScratch) (IndexState, error) {
	snap, ok := is.cache.Policy().(cache.Snapshottable)
	if !ok {
		return IndexState{}, fmt.Errorf("strategy policy %q does not support state snapshots", is.cache.Policy().Name())
	}
	policy, err := snap.AppendState(x.policy[:0])
	if err != nil {
		return IndexState{}, err
	}
	x.policy = policy
	x.entries = is.cache.AppendEntries(reuseSlice(x.entries, is.cache.Len()))
	st := IndexState{
		Entries:    x.entries,
		Policy:     policy,
		Hits:       is.cache.Hits(),
		Misses:     is.cache.Misses(),
		Generation: is.generation,
		FillCursor: is.fillCursor,
	}
	x.keys = is.placedKeys(x.keys)
	if len(x.keys) == 0 {
		return st, nil
	}
	// Every placement's Slots share two backing arrays, one of rows and
	// one of copies, sized in a first pass. A segment without copies
	// keeps a nil row.
	segs, copies := 0, 0
	for _, pk := range x.keys {
		pp := &is.placement[pk.key()]
		segs += pp.segs()
		for idx := range pp.segs() {
			copies += len(pp.copies(idx))
		}
	}
	x.rows = reuseSlice(x.rows, segs)[:segs]
	x.cells = reuseSlice(x.cells, copies)[:copies]
	x.placements = reuseSlice(x.placements, len(x.keys))[:len(x.keys)]
	rows, cells := x.rows, x.cells
	for i, pk := range x.keys {
		pp := &is.placement[pk.key()]
		n := pp.segs()
		ps := &x.placements[i]
		*ps = PlacementState{
			Program:      pk.program(),
			Replicas:     int(pp.replicas),
			Slots:        rows[:n:n],
			RejectedSegs: int(pp.rejectedSegs),
			RejectedReps: int(pp.rejectedReps),
			RejectedGen:  pp.rejectedGen,
		}
		rows = rows[n:]
		for idx := range n {
			c := pp.copies(idx)
			if len(c) == 0 {
				ps.Slots[idx] = nil
				continue
			}
			row := cells[:len(c):len(c)]
			cells = cells[len(c):]
			for j, pi := range c {
				row[j] = int(pi)
			}
			ps.Slots[idx] = row
		}
	}
	st.Placements = x.placements
	return st, nil
}

// RestoreOptions tunes how a serialized state is brought back to life.
// The zero value restores the snapshot as-is.
type RestoreOptions struct {
	// Strategy, when non-empty, forks the warm state onto a different
	// caching strategy: the inherited cache contents seed the fresh
	// policy (admitted in eviction order at the snapshot clock), while
	// placements, meters and counters carry over unchanged.
	Strategy string

	// Parallelism, when non-zero, overrides the restored engine's worker
	// pool width. Results are bit-identical at every level.
	Parallelism int

	// Collector, when non-nil, observes the restored engine's hot path.
	Collector Collector
}

// RestoreSystem rebuilds a running engine from a serialized state. The
// state value is not consumed: restoring twice (or n times — see Fork)
// yields fully independent Systems sharing no mutable state.
func RestoreSystem(st *SystemState, opts RestoreOptions) (*System, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil system state")
	}
	if st.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this build reads %d", st.Version, SnapshotVersion)
	}
	cfg := st.Config
	seed := false
	if opts.Strategy != "" && opts.Strategy != cfg.strategyName() {
		cfg.Strategy = 0
		cfg.StrategyName = opts.Strategy
		seed = true
	}
	if opts.Parallelism != 0 {
		cfg.Parallelism = opts.Parallelism
	}

	sys, err := NewSystem(cfg, Workload{Users: st.Users, Lengths: st.Lengths, Future: st.Future})
	if err != nil {
		return nil, err
	}
	sys.collector = opts.Collector
	if len(st.Shards) != len(sys.shards) {
		return nil, fmt.Errorf("core: snapshot has %d shards, plant built %d", len(st.Shards), len(sys.shards))
	}
	sys.submitted = st.Submitted
	sys.lastStart = st.LastStart
	for i, d := range st.Disruptions {
		if err := d.Validate(sys.topo); err != nil {
			return nil, fmt.Errorf("core: snapshot disruption %d: %w", i, err)
		}
	}
	sys.disruptions = append([]Disruption(nil), st.Disruptions...)

	for i, sh := range sys.shards {
		if err := sh.restoreState(st.Shards[i], st.LastStart, seed); err != nil {
			return nil, fmt.Errorf("core: neighborhood %d: %w", i, err)
		}
	}
	return sys, nil
}

func (sh *shard) restoreState(st ShardState, now time.Duration, seed bool) error {
	if st.Neighborhood != sh.nb.ID() {
		return fmt.Errorf("shard state for neighborhood %d", st.Neighborhood)
	}
	peers := sh.nb.Peers()
	if len(st.Peers) != len(peers) {
		return fmt.Errorf("snapshot has %d boxes, neighborhood has %d", len(st.Peers), len(peers))
	}
	if st.Active < 0 {
		return fmt.Errorf("negative active sessions %d", st.Active)
	}
	for i, ps := range st.Peers {
		if err := peers[i].SetStorageCapacity(ps.Capacity); err != nil {
			return fmt.Errorf("box %d: %w", i, err)
		}
		if err := peers[i].RestoreState(ps.Used, ps.Active); err != nil {
			return fmt.Errorf("box %d: %w", i, err)
		}
	}
	coax := sh.nb.Coax()
	if err := coax.SetCapacity(st.Coax.Capacity); err != nil {
		return err
	}
	if err := coax.RestoreState(st.Coax.Rate, st.Coax.Active, st.Coax.Peak); err != nil {
		return err
	}

	// A snapshot is drained to its last record's start, and a served
	// transfer ends at most one segment after it starts.
	maxHour := int64((now + units.SegmentDuration) / time.Hour)
	if err := sh.serverMeter.RestoreBuckets(st.ServerBuckets, maxHour); err != nil {
		return fmt.Errorf("server meter: %w", err)
	}
	if err := sh.demandMeter.RestoreBuckets(st.DemandBuckets, maxHour); err != nil {
		return fmt.Errorf("demand meter: %w", err)
	}
	if err := sh.coaxMeter.RestoreBuckets(st.CoaxBuckets, maxHour); err != nil {
		return fmt.Errorf("coax meter: %w", err)
	}
	sh.counters = st.Counters
	sh.active = st.Active
	sh.obsHour = st.ObsHour
	sh.obsServerRate = st.ObsServerRate

	if err := sh.is.restoreState(st.Index, now, seed); err != nil {
		return err
	}

	// Rebuild the in-flight sessions, then the pending events that
	// reference them.
	sessions := make([]*session, len(st.Sessions))
	for i, ss := range st.Sessions {
		viewer, ok := sh.nb.PeerOf(ss.Rec.User)
		if !ok {
			return fmt.Errorf("session %d: user %d not in this neighborhood", i, ss.Rec.User)
		}
		sessions[i] = &session{
			rec:        ss.Rec,
			sh:         sh,
			viewer:     viewer,
			length:     sh.sys.lengths(ss.Rec.Program),
			firstFetch: ss.FirstFetch,
		}
	}
	pending := make([]eventq.PendingEvent, len(st.Events))
	ends := 0
	for i, es := range st.Events {
		ev := &shardEvent{sh: sh, kind: eventKind(es.Kind)}
		switch ev.kind {
		case evSessionEnd, evSegment:
			if es.Session < 0 || es.Session >= len(sessions) {
				return fmt.Errorf("event %d references session %d of %d", i, es.Session, len(sessions))
			}
			ev.sess = sessions[es.Session]
			if ev.kind == evSessionEnd {
				ends++
			}
		case evCoaxRelease:
		case evPeerClose, evBroadcastEnd:
			if es.Peer < 0 || es.Peer >= len(peers) {
				return fmt.Errorf("event %d references box %d of %d", i, es.Peer, len(peers))
			}
			ev.peer = peers[es.Peer]
		default:
			return fmt.Errorf("event %d has unknown kind %d", i, es.Kind)
		}
		pending[i] = eventq.PendingEvent{At: es.At, Prio: eventq.Priority(es.Prio), Seq: es.Seq, Ev: ev}
	}
	if ends != st.Active {
		return fmt.Errorf("snapshot has %d pending session ends for %d active sessions", ends, st.Active)
	}
	q, err := eventq.Restore(st.QueueNow, st.NextSeq, st.Executed, pending)
	if err != nil {
		return err
	}
	sh.queue = q
	return nil
}

func (is *IndexServer) restoreState(st IndexState, now time.Duration, seed bool) error {
	// The pooled capacity was computed at construction from the config's
	// uniform per-box storage; disruptions may have re-provisioned boxes
	// before the snapshot, so re-derive it from the restored peers. The
	// cache is still empty here, so no evictions can trigger.
	if _, err := is.cache.SetCapacity(is.nb.TotalCacheCapacity()); err != nil {
		return err
	}
	if seed {
		// Forking onto a different strategy: the fresh policy learns the
		// inherited contents as a sequence of admissions at the snapshot
		// clock, in eviction order (least valuable admitted first).
		if err := is.cache.RestoreEntries(st.Entries, now, true); err != nil {
			return err
		}
	} else {
		snap, ok := is.cache.Policy().(cache.Snapshottable)
		if !ok {
			return fmt.Errorf("strategy policy %q does not support state restore", is.cache.Policy().Name())
		}
		if err := snap.RestoreState(st.Policy); err != nil {
			return err
		}
		if err := is.cache.RestoreEntries(st.Entries, now, false); err != nil {
			return err
		}
	}
	is.cache.RestoreStats(st.Hits, st.Misses)
	is.generation = st.Generation
	is.fillCursor = st.FillCursor
	if is.fillCursor < 0 || (len(is.nb.Peers()) > 0 && is.fillCursor >= len(is.nb.Peers())) {
		return fmt.Errorf("fill cursor %d out of range", is.fillCursor)
	}

	peers := is.nb.Peers()
	onBox := make([]bool, len(peers)) // one segment's copies, while checked
	for _, ps := range st.Placements {
		if !is.cache.Contains(ps.Program) {
			return fmt.Errorf("placement for uncached program %d", ps.Program)
		}
		k := is.cache.Key(ps.Program)
		if is.placed(k) != nil {
			return fmt.Errorf("duplicate placement for program %d", ps.Program)
		}
		if ps.Replicas < 1 || ps.Replicas > math.MaxInt32 {
			return fmt.Errorf("program %d placed with %d replicas", ps.Program, ps.Replicas)
		}
		if ps.RejectedSegs < 0 || ps.RejectedSegs > math.MaxInt32 || ps.RejectedReps < 0 || ps.RejectedReps > math.MaxInt32 {
			return fmt.Errorf("program %d has a rejected upgrade of %d segments x %d replicas", ps.Program, ps.RejectedSegs, ps.RejectedReps)
		}
		// A placement covers at most the program's segments, and a
		// segment's copies sit on distinct boxes, at most one per replica.
		if segs := segment.Count(is.lengths(ps.Program)); len(ps.Slots) > segs {
			return fmt.Errorf("program %d placed with %d segments of %d", ps.Program, len(ps.Slots), segs)
		}
		widest := 0
		for idx, copies := range ps.Slots {
			if len(copies) > is.fullStride(ps.Replicas) {
				return fmt.Errorf("program %d segment %d has %d copies for %d replicas on %d boxes", ps.Program, idx, len(copies), ps.Replicas, len(peers))
			}
			for _, pi := range copies {
				if pi < 0 || pi >= len(peers) {
					return fmt.Errorf("program %d segment %d placed on box %d of %d", ps.Program, idx, pi, len(peers))
				}
				if onBox[pi] {
					return fmt.Errorf("program %d segment %d placed twice on box %d", ps.Program, idx, pi)
				}
				onBox[pi] = true
			}
			for _, pi := range copies {
				onBox[pi] = false
			}
			widest = max(widest, len(copies))
		}
		// The cells are sized from the copies the rows carry, not from
		// the replica count: a fill past them widens the placement.
		widest = max(widest, 1)
		pp := programPlacement{
			cells:        emptyCells(len(ps.Slots) * widest),
			stride:       int32(widest),
			replicas:     int32(ps.Replicas),
			rejectedSegs: int32(ps.RejectedSegs),
			rejectedReps: int32(ps.RejectedReps),
			rejectedGen:  ps.RejectedGen,
		}
		for idx, copies := range ps.Slots {
			c := pp.segment(idx)
			for i, pi := range copies {
				c[i] = int32(pi)
			}
		}
		is.placement = cache.GrowKeyed(is.placement, k)
		is.placement[k] = pp
		is.cache.Pin(k)
	}
	return nil
}

// Fork deep-copies the running engine n times. Each fork is a fully
// independent System continuing from the same warm state — same caches,
// sessions, meters and pending events — sharing no mutable state with
// its siblings or the original, so forks can run concurrently and must
// produce bit-identical results to n independent restores.
func (s *System) Fork(n int) ([]*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: fork count %d", n)
	}
	st, err := s.ExportState()
	if err != nil {
		return nil, err
	}
	forks := make([]*System, n)
	for i := range forks {
		sys, err := RestoreSystem(st, RestoreOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: fork %d: %w", i, err)
		}
		forks[i] = sys
	}
	return forks, nil
}

// CoaxWindowStats pools every neighborhood's hourly coax rate samples
// over the absolute hour window [fromHour, toHour) — the incident-window
// report behind fork comparisons. Hours without traffic contribute zero
// samples.
func (s *System) CoaxWindowStats(fromHour, toHour int64) metrics.RateStats {
	var samples []units.BitRate
	for _, sh := range s.shards {
		samples = append(samples, sh.coaxMeter.HourWindowSamples(fromHour, toHour, nil)...)
	}
	return metrics.NewRateStats(samples)
}

// TotalBits sums central-server and demand-baseline bits transferred so
// far — the live counterpart of SystemState.TotalBits. Subtracting a
// snapshot's totals isolates what one fork did after the fork point.
// Valid on a closed system too.
func (s *System) TotalBits() (server, demand int64) {
	for _, sh := range s.shards {
		for _, b := range sh.serverMeter.Buckets() {
			server += b
		}
		for _, b := range sh.demandMeter.Buckets() {
			demand += b
		}
	}
	return server, demand
}
