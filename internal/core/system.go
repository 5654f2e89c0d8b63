package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cablevod/internal/eventq"
	"cablevod/internal/hfc"
	"cablevod/internal/metrics"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// Workload is what the engine must know about the subscriber population
// and catalog before serving requests online. The request sequence itself
// arrives record by record through System.Submit.
type Workload struct {
	// Users is the full subscriber population to build the plant for.
	// Placement is deterministic over the sorted population, so the
	// engine needs it up front; Submit rejects users outside it. The
	// population must be duplicate-free.
	Users []trace.UserID

	// Lengths is the catalog: full playback length per program.
	// Programs absent from the catalog are treated as length-unknown —
	// they are never admitted to caches (admission size 0) and stream
	// from the central server.
	Lengths map[trace.ProgramID]time.Duration

	// Future is the complete upcoming request sequence in timestamp
	// order, for offline strategies (the oracle). nil for truly online
	// runs; offline strategies then fail construction.
	Future []trace.Record
}

// WorkloadFromTrace derives the Workload a batch replay of tr implies:
// the trace's users, the length table Run has always used (explicit
// ProgramLengths entries win over the longest observed playback), and
// the trace itself as the future.
func WorkloadFromTrace(tr *trace.Trace) Workload {
	return Workload{
		Users:   tr.Users(),
		Lengths: TraceLengths(tr),
		Future:  tr.Records,
	}
}

// TraceLengths resolves every program length in tr once up front: traces
// loaded from CSV have no length table, and the per-program fallback
// scans the whole trace. The explicit table wins over the observed
// fallback, matching trace.ProgramLength.
func TraceLengths(tr *trace.Trace) map[trace.ProgramID]time.Duration {
	lengths := make(map[trace.ProgramID]time.Duration, len(tr.ProgramLengths))
	for _, r := range tr.Records {
		if end := r.Offset + r.Duration; end > lengths[r.Program] {
			lengths[r.Program] = end
		}
	}
	for p, l := range tr.ProgramLengths {
		lengths[p] = l
	}
	return lengths
}

// denseLengths converts a length table whose program IDs are exactly
// 0..n-1 into a slice, or reports that the catalog is sparse. Absent
// IDs inside the range keep the map's zero-value semantics.
func denseLengths(m map[trace.ProgramID]time.Duration) ([]time.Duration, bool) {
	if len(m) == 0 {
		return nil, false
	}
	table := make([]time.Duration, len(m))
	for p, l := range m {
		if p < 0 || int(p) >= len(table) {
			return nil, false
		}
		table[p] = l
	}
	return table, true
}

// shardMode classifies how a run's shards may execute, decided once at
// construction from the strategy's declared coupling.
type shardMode int

const (
	// shardsIndependent: per-neighborhood policies share no mutable
	// state; shards run fully concurrently and merge at the end.
	shardsIndependent shardMode = iota
	// shardsEpochCoupled: policies share state that is observable only
	// at discrete publication instants (a ShardCoupler); shards run
	// concurrently between instants and synchronize at each barrier.
	shardsEpochCoupled
	// shardsSerialized: policies couple shards at per-request
	// granularity (a live global feed, or a custom strategy of unknown
	// provenance); records are processed in global order on the calling
	// goroutine. Event-queue drains still parallelize — queued events
	// never touch policies.
	shardsSerialized
)

// System is the long-lived online serving engine: a coordinator routing
// session records to per-neighborhood shards. Each shard owns one
// neighborhood's pooled cache, index server, coax channel, event queue,
// and metric accumulators; the coordinator routes Submit records by user
// homing, fans SubmitBatch windows out across a bounded worker pool
// (Config.Parallelism), and merges shard metrics into Result and
// Metrics. Results are bit-identical at every parallelism level: shard
// accumulators are exact integer sums merged in neighborhood order, and
// cross-shard strategy state synchronizes at deterministic epoch
// barriers (see ShardCoupler).
//
// Calls must not race: the System is driven from one goroutine and
// manages its internal worker pool itself.
type System struct {
	cfg    Config
	topo   *hfc.Topology
	shards []*shard

	// workers bounds the worker pool shards execute on.
	workers int
	// mode is the concurrency class the strategy permits.
	mode shardMode
	// coupler synchronizes strategy-shared state at epoch barriers in
	// shardsEpochCoupled mode; nil otherwise.
	coupler ShardCoupler

	// lengths resolves catalog program lengths.
	lengths func(trace.ProgramID) time.Duration

	// users, lengthTable and future retain the workload the engine was
	// built from, so a snapshot can rebuild an identical plant and
	// strategy state (see ExportState). All three are read-only after
	// construction.
	users       []trace.UserID
	lengthTable map[trace.ProgramID]time.Duration
	future      []trace.Record

	// disruptions is the pending supply-side disruption schedule, sorted
	// by time (see ScheduleDisruptions).
	disruptions []Disruption

	// collector, when non-nil, observes hot-path events (see
	// Collector). Strictly observational: never read by the engine.
	collector Collector

	// routedBuf and touchedBuf are SubmitBatch's routing scratch,
	// reused across calls: a long-running driver submits thousands of
	// batches, and per-call slices of len(recs) pointers were a
	// measurable share of ingest allocations at mega scale.
	routedBuf  []*shard
	touchedBuf []*shard

	submitted int
	lastStart time.Duration
	closed    bool
}

// NewSystem builds the plant, caches, and strategy state for an online
// run over the given population and catalog.
func NewSystem(cfg Config, w Workload) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(w.Users) == 0 {
		return nil, fmt.Errorf("core: workload has no subscribers")
	}
	topo, err := hfc.Build(cfg.Topology, w.Users)
	if err != nil {
		return nil, err
	}

	s := &System{
		cfg:     cfg,
		topo:    topo,
		workers: cfg.effectiveParallelism(),
	}
	if s.workers > topo.NeighborhoodCount() {
		s.workers = topo.NeighborhoodCount()
	}

	lengths := w.Lengths
	if lengths == nil {
		lengths = map[trace.ProgramID]time.Duration{}
	}
	// Dense catalogs (IDs 0..n-1, what synth streams and universe tiers
	// generate) resolve lengths through a slice instead of a map: the
	// lookup runs once per session, and at the mega tier that is
	// millions of map probes a simulated day.
	if table, ok := denseLengths(lengths); ok {
		s.lengths = func(p trace.ProgramID) time.Duration {
			if int(p) < len(table) && p >= 0 {
				return table[p]
			}
			return 0
		}
	} else {
		s.lengths = func(p trace.ProgramID) time.Duration { return lengths[p] }
	}
	s.users = append([]trace.UserID(nil), w.Users...)
	s.lengthTable = lengths
	s.future = w.Future

	entry, ok := lookupStrategy(cfg.strategyName())
	if !ok {
		// Unreachable after Validate; kept as a defensive check.
		return nil, fmt.Errorf("core: unknown strategy %q", cfg.strategyName())
	}
	env := &PolicyEnv{Config: cfg, Topology: topo, Future: w.Future, Lengths: s.lengths}
	newPolicy, err := entry.factory(env)
	if err != nil {
		return nil, err
	}
	switch {
	case env.coupler != nil:
		s.mode = shardsEpochCoupled
		s.coupler = env.coupler
	case entry.traits.ShardIndependent:
		s.mode = shardsIndependent
	default:
		s.mode = shardsSerialized
	}

	s.shards = make([]*shard, topo.NeighborhoodCount())
	for i, nb := range topo.Neighborhoods() {
		pol, err := newPolicy(i)
		if err != nil {
			return nil, err
		}
		if pol == nil {
			return nil, fmt.Errorf("core: strategy %q built a nil policy", cfg.strategyName())
		}
		is, err := NewIndexServer(nb, pol, s.lengths, ServerOptions{
			EnforceStreamLimit: !cfg.DisablePeerStreamLimit,
			Fill:               cfg.Fill,
			BroadcastFill:      !cfg.DisableCacheFill,
			Replicas:           cfg.Replicas,
			PrefixSegments:     cfg.PrefixSegments,
		})
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{
			sys:         s,
			nb:          nb,
			is:          is,
			queue:       eventq.New(),
			serverMeter: metrics.NewRateMeter(),
			demandMeter: metrics.NewRateMeter(),
			coaxMeter:   metrics.NewRateMeter(),
			obsHour:     -1,
		}
	}
	return s, nil
}

// Topology returns the built plant.
func (s *System) Topology() *hfc.Topology { return s.topo }

// Server returns the index server of neighborhood nb.
func (s *System) Server(nb int) *IndexServer { return s.shards[nb].is }

// Config returns the resolved run configuration (defaults applied).
func (s *System) Config() Config { return s.cfg }

// Shards returns the number of engine shards (one per neighborhood).
func (s *System) Shards() int { return len(s.shards) }

// Parallelism returns the resolved worker-pool width shards execute on.
func (s *System) Parallelism() int { return s.workers }

// Now returns the engine's virtual clock: the time of the latest
// processed event or submitted record.
func (s *System) Now() time.Duration {
	now := s.lastStart
	for _, sh := range s.shards {
		if t := sh.queue.Now(); t > now {
			now = t
		}
	}
	return now
}

// route validates one record against the engine state and resolves its
// home shard.
func (s *System) route(rec trace.Record, lastStart time.Duration) (*shard, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	// Every event a session schedules falls at or before its end, so a
	// session ending before the event queue's limit is safe to play.
	if rec.Duration >= eventq.TimeLimit-rec.Start {
		return nil, fmt.Errorf("core: record ends at or past the event-queue time limit %v (start %v, duration %v)",
			eventq.TimeLimit, rec.Start, rec.Duration)
	}
	if rec.Start < lastStart {
		return nil, fmt.Errorf("core: record out of order: start %v before %v", rec.Start, lastStart)
	}
	nb, ok := s.topo.Home(rec.User)
	if !ok {
		return nil, fmt.Errorf("core: user %d not in the subscriber population", rec.User)
	}
	if _, ok := nb.PeerOf(rec.User); !ok {
		return nil, fmt.Errorf("core: user %d has no box", rec.User)
	}
	return s.shards[nb.ID()], nil
}

// Submit ingests one session record, advancing virtual time to the
// record's start. Records must arrive in non-decreasing Start order (for
// bit-exact agreement with a batch Run over a trace, in the trace's full
// (Start, User, Program) sort order); the record's user must belong to
// the workload population. For ingest throughput over many records, use
// SubmitBatch, which fans independent shards out across the worker pool.
func (s *System) Submit(rec trace.Record) error {
	if s.closed {
		return fmt.Errorf("core: submit on closed system")
	}
	sh, err := s.route(rec, s.lastStart)
	if err != nil {
		return err
	}
	if s.disruptionDue(rec.Start) {
		s.applyDisruptionsDue(rec.Start)
	}
	if s.coupler != nil && s.coupler.SyncNeeded(rec.Start) {
		s.coupler.Sync(rec.Start)
	}
	sh.submit(rec)
	s.lastStart = rec.Start
	s.submitted++
	return nil
}

// SubmitBatch ingests a sequence of session records, subject to the same
// ordering and membership rules as Submit. The batch is validated as a
// whole before any record is processed — on error the engine state is
// unchanged. Processing partitions the batch across shards by user
// homing and advances every shard concurrently on the worker pool in
// epoch windows, producing results bit-identical to submitting each
// record individually at any parallelism level.
func (s *System) SubmitBatch(recs []trace.Record) error {
	if s.closed {
		return fmt.Errorf("core: submit on closed system")
	}
	if cap(s.routedBuf) < len(recs) {
		s.routedBuf = make([]*shard, len(recs))
	}
	routed := s.routedBuf[:len(recs)]
	lastStart := s.lastStart
	for i, rec := range recs {
		sh, err := s.route(rec, lastStart)
		if err != nil {
			return fmt.Errorf("core: record %d: %w", i, err)
		}
		routed[i] = sh
		lastStart = rec.Start
	}

	switch s.mode {
	case shardsSerialized:
		// Per-request cross-shard coupling: global order, one goroutine.
		for i, rec := range recs {
			if s.disruptionDue(rec.Start) {
				s.applyDisruptionsDue(rec.Start)
			}
			routed[i].submit(rec)
		}
	default:
		// Shards run concurrently between barriers: epoch publication
		// instants (shared strategy state synchronizes before the first
		// record at or past each one) and disruption instants
		// (the plant changes with no worker running). Both split the
		// batch at the same record boundaries at every parallelism level,
		// so results stay bit-identical.
		start := 0
		for i, rec := range recs {
			sync := s.mode == shardsEpochCoupled && s.coupler.SyncNeeded(rec.Start)
			if sync || s.disruptionDue(rec.Start) {
				s.dispatch(recs[start:i], routed[start:i])
				s.applyDisruptionsDue(rec.Start)
				if sync {
					s.coupler.Sync(rec.Start)
				}
				start = i
			}
		}
		s.dispatch(recs[start:], routed[start:])
	}

	if len(recs) > 0 {
		s.lastStart = recs[len(recs)-1].Start
		s.submitted += len(recs)
	}
	return nil
}

// dispatch files one window of routed records into shard mailboxes and
// drains every touched shard on the worker pool.
func (s *System) dispatch(recs []trace.Record, routed []*shard) {
	if len(recs) == 0 {
		return
	}
	touched := s.touchedBuf[:0]
	for i, rec := range recs {
		sh := routed[i]
		if len(sh.pending) == 0 {
			touched = append(touched, sh)
		}
		sh.pending = append(sh.pending, rec)
	}
	s.forShards(touched, (*shard).drainPending)
	s.touchedBuf = touched[:0]
}

// forShards runs fn once per shard across the bounded worker pool. fn
// must touch only the shard it is handed (plus read-only engine state);
// the pool provides the happens-before edges that make per-window shard
// state visible to the coordinator and the next window's workers.
func (s *System) forShards(shards []*shard, fn func(*shard)) {
	n := len(shards)
	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, sh := range shards {
			fn(sh)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(shards[i])
			}
		}()
	}
	wg.Wait()
}

// flush advances every shard's event queue to the last submitted
// record's start, so aggregates reflect exactly what the serial engine
// would have processed by that point. Queued events never touch strategy
// state, so the drain parallelizes in every mode.
func (s *System) flush() {
	if s.submitted == 0 {
		return
	}
	at := s.lastStart
	s.forShards(s.shards, func(sh *shard) { sh.advanceTo(at) })
}

// Close drains every in-flight session and finalizes the run statistics.
// The system cannot be used afterwards.
func (s *System) Close() (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("core: system already closed")
	}
	s.closed = true
	// Disruptions scheduled past the last record still apply, in order,
	// before the drain they precede.
	for len(s.disruptions) > 0 {
		d := s.disruptions[0]
		s.disruptions = s.disruptions[1:]
		s.applyDisruption(d)
	}
	s.forShards(s.shards, func(sh *shard) { sh.queue.Run() })

	res := &Result{Config: s.cfg, Days: s.days(), Neighborhoods: len(s.shards)}
	days, warmup := res.Days, res.AppliedWarmup()

	// Central-server load and demand are time-aligned sums of the
	// per-shard meters: integer bits per hour bucket, so the merge is
	// exact and order-independent.
	serverMeter := metrics.NewRateMeter()
	demandMeter := metrics.NewRateMeter()
	for _, sh := range s.shards {
		serverMeter.Merge(sh.serverMeter)
		demandMeter.Merge(sh.demandMeter)
		res.Counters.Add(sh.counters)
	}
	res.Server = serverMeter.PeakStatsRange(warmup, days)
	res.ServerHourly = serverMeter.HourOfDayAverage(days)
	res.Demand = demandMeter.PeakStatsRange(warmup, days)
	res.ServerBits = serverMeter.TotalBits()
	res.DemandBits = demandMeter.TotalBits()
	// Pool peak-hour samples across every neighborhood for Figure 14.
	var coaxSamples []units.BitRate
	for _, sh := range s.shards {
		coaxSamples = append(coaxSamples, sh.coaxMeter.HourSamplesRange(warmup, days, metrics.PeakHour)...)
	}
	res.Coax = metrics.NewRateStats(coaxSamples)
	if res.Demand.Mean > 0 {
		res.SavingsVsDemand = 1 - float64(res.Server.Mean)/float64(res.Demand.Mean)
	}
	return res, nil
}

// days counts evaluation days by session *starts*: sessions spilling past
// midnight of the last day would otherwise add a phantom final day with
// empty peak hours, deflating every peak average.
func (s *System) days() int {
	if s.submitted == 0 {
		return 0
	}
	return units.DayIndex(s.lastStart) + 1
}

// NeighborhoodMetrics is one neighborhood's slice of a Snapshot — the
// per-shard breakdown the sharded engine exposes for free.
type NeighborhoodMetrics struct {
	// ID is the neighborhood (= shard) index.
	ID int

	// Sessions counts sessions started in this neighborhood.
	Sessions uint64

	// ActiveSessions is the number of sessions currently playing.
	ActiveSessions int

	// HitRatio is the neighborhood's running segment hit ratio.
	HitRatio float64

	// CoaxRate is the whole-run average broadcast load on this
	// neighborhood's coax channel.
	CoaxRate units.BitRate

	// CacheUsed and CacheCapacity describe the pooled cache occupancy.
	CacheUsed, CacheCapacity units.ByteSize

	// CachedPrograms counts programs resident in the pooled cache.
	CachedPrograms int
}

// Metrics is a live aggregate view of a running System, valid as of the
// last submitted record's start time.
type Metrics struct {
	// Now is the virtual clock the aggregates are valid at.
	Now time.Duration

	// Submitted is the number of records accepted so far.
	Submitted int

	// ActiveSessions is the number of sessions currently playing.
	ActiveSessions int

	// Counters are the running event totals (hits, misses, admissions,
	// evictions, ...).
	Counters Counters

	// ServerBits and DemandBits are bits transferred so far from the
	// central server and by the uncached-demand baseline.
	ServerBits, DemandBits int64

	// ServerRate, DemandRate and CoaxRate are whole-run average rates
	// up to Now (CoaxRate per neighborhood).
	ServerRate, DemandRate, CoaxRate units.BitRate

	// CacheUsed and CacheCapacity aggregate the pooled caches across
	// all neighborhoods; CachedPrograms counts cached program copies.
	CacheUsed, CacheCapacity units.ByteSize
	CachedPrograms           int

	// Neighborhoods is the number of headends serving (= the engine's
	// shard count).
	Neighborhoods int

	// PerNeighborhood breaks load, hit ratio, and cache occupancy down
	// by neighborhood, in neighborhood order.
	PerNeighborhood []NeighborhoodMetrics
}

// HitRatio returns the running segment hit ratio.
func (m Metrics) HitRatio() float64 { return m.Counters.HitRatio() }

// Savings returns the running transfer savings against the uncached
// baseline: 1 - ServerBits/DemandBits.
func (m Metrics) Savings() float64 {
	if m.DemandBits == 0 {
		return 0
	}
	return 1 - float64(m.ServerBits)/float64(m.DemandBits)
}

// Snapshot reports live aggregates, including the per-neighborhood
// breakdown. It does not advance the clock past the last submitted
// record: the view reflects everything the engine served up to the last
// Submit, with lagging shards drained to that point first.
func (s *System) Snapshot() Metrics {
	s.flush()
	m := Metrics{
		Submitted:       s.submitted,
		Neighborhoods:   len(s.shards),
		PerNeighborhood: make([]NeighborhoodMetrics, len(s.shards)),
	}
	var coaxBits int64
	shardCoaxBits := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		c := sh.is.Cache()
		shardCoax := sh.coaxMeter.TotalBits()
		shardCoaxBits[i] = shardCoax
		m.Counters.Add(sh.counters)
		m.ActiveSessions += sh.active
		m.ServerBits += sh.serverMeter.TotalBits()
		m.DemandBits += sh.demandMeter.TotalBits()
		m.CacheUsed += c.Used()
		m.CacheCapacity += c.Capacity()
		m.CachedPrograms += c.Len()
		coaxBits += shardCoax
		m.PerNeighborhood[i] = NeighborhoodMetrics{
			ID:             i,
			Sessions:       sh.counters.Sessions,
			ActiveSessions: sh.active,
			HitRatio:       sh.counters.HitRatio(),
			CacheUsed:      c.Used(),
			CacheCapacity:  c.Capacity(),
			CachedPrograms: c.Len(),
		}
	}
	m.Now = s.Now()
	if secs := m.Now.Seconds(); secs > 0 {
		m.ServerRate = units.BitRate(float64(m.ServerBits) / secs)
		m.DemandRate = units.BitRate(float64(m.DemandBits) / secs)
		if n := len(s.shards); n > 0 {
			m.CoaxRate = units.BitRate(float64(coaxBits) / secs / float64(n))
		}
		for i := range s.shards {
			m.PerNeighborhood[i].CoaxRate = units.BitRate(float64(shardCoaxBits[i]) / secs)
		}
	}
	return m
}
