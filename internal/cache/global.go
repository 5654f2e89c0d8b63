package cache

import (
	"fmt"
	"sort"
	"time"

	"cablevod/internal/trace"
)

// Global popularity sharing (Figure 13): instead of ranking programs by
// the accesses seen within one neighborhood, index servers may use usage
// data aggregated across every peer in the system. The paper evaluates a
// live global feed, lagged feeds updated in 30-minute and 2-hour batches,
// and the purely local baseline.
//
// Global is the shared aggregator; GlobalLFU is the per-neighborhood
// policy view of it. All neighborhoods' requests must be recorded through
// their GlobalLFU policies for the shared counts to be meaningful.

// Global aggregates windowed access counts across all neighborhoods.
type Global struct {
	history time.Duration
	lag     time.Duration

	counts map[trace.ProgramID]int
	expiry []expiryEvent
	head   int
	now    time.Duration

	// published is the snapshot policies see when lag > 0; version ticks
	// on every publication so policies can rebuild lazily.
	published   map[trace.ProgramID]int
	version     uint64
	nextPublish time.Duration

	// subscribers maps a program to the policy views currently caching
	// it, for live (lag == 0) count-change pushes.
	subscribers map[trace.ProgramID]map[globalView]struct{}

	// coordinated switches the aggregator into barrier-synchronized mode
	// for concurrent neighborhood shards (see Coordinate): policies
	// buffer their access records locally and only read the published
	// snapshot; all shared-state mutation happens in Sync, which the
	// engine calls between processing windows when no policy is running.
	coordinated bool

	// views lists every per-neighborhood view handed out (fused
	// GlobalLFU policies or pipeline GlobalScorer stages), in creation
	// order, so Sync can drain their buffers deterministically.
	views []globalView
}

// globalView is one neighborhood's view of the aggregator — either the
// fused GlobalLFU policy or the pipeline GlobalScorer stage. A run uses
// one kind throughout; the interface lets the aggregator push live
// count changes and drain coordinated-mode buffers without knowing
// which.
type globalView interface {
	// pushCount delivers a live (lag == 0) count change for a program
	// this view is caching.
	pushCount(p trace.ProgramID, count int)
	// drainPending hands over and clears the view's coordinated-mode
	// access buffer.
	drainPending() []expiryEvent
}

// NewGlobal returns a shared aggregator with the given history window and
// publication lag (0 = live).
func NewGlobal(history, lag time.Duration) (*Global, error) {
	if history < 0 {
		return nil, fmt.Errorf("cache: negative global history %v", history)
	}
	if lag < 0 {
		return nil, fmt.Errorf("cache: negative global lag %v", lag)
	}
	return &Global{
		history:     history,
		lag:         lag,
		counts:      make(map[trace.ProgramID]int),
		published:   make(map[trace.ProgramID]int),
		nextPublish: lag,
		subscribers: make(map[trace.ProgramID]map[globalView]struct{}),
	}, nil
}

// NewPolicy returns a fused policy view of the aggregator for one
// neighborhood.
func (g *Global) NewPolicy() *GlobalLFU {
	pol := &GlobalLFU{global: g, set: newBucketSet()}
	g.views = append(g.views, pol)
	return pol
}

// NewScorer returns a pipeline scorer view of the aggregator for one
// neighborhood: the valuation stage of the pipeline-built global-lfu.
func (g *Global) NewScorer() *GlobalScorer {
	sc := &GlobalScorer{global: g}
	g.views = append(g.views, sc)
	return sc
}

// Coordinate switches the aggregator into barrier-synchronized mode for
// concurrent per-neighborhood shards. Between barriers, policies read
// only the immutable published snapshot and buffer their access records
// locally; the engine calls Sync at each publication instant (while no
// policy is running) to merge the buffers and republish. This reproduces
// the serial lag semantics exactly — with lag > 0, counts are observable
// only through publications, so deferring the merge to the publication
// instant changes nothing. A live feed (lag == 0) couples neighborhoods
// at per-request granularity and cannot be coordinated; callers must
// serialize instead.
func (g *Global) Coordinate() error {
	if g.lag <= 0 {
		return fmt.Errorf("cache: live global feed (lag 0) couples neighborhoods per request and cannot be barrier-coordinated")
	}
	if g.now != 0 || len(g.expiry) != 0 || len(g.counts) != 0 {
		return fmt.Errorf("cache: Coordinate must be called before any traffic")
	}
	g.coordinated = true
	return nil
}

// SyncNeeded reports whether shared state must be synchronized before a
// request at time next is processed: the next publication instant has
// been reached. Part of the engine's shard-coupling contract.
func (g *Global) SyncNeeded(next time.Duration) bool {
	return g.coordinated && next >= g.nextPublish
}

// Sync merges every policy's buffered access records and republishes the
// popularity snapshot as of time now — the coordinated-mode equivalent
// of the first advance call crossing a publication boundary. The engine
// must call it with no policy running concurrently.
func (g *Global) Sync(now time.Duration) {
	if !g.coordinated {
		return
	}
	var batch []expiryEvent
	for _, v := range g.views {
		batch = append(batch, v.drainPending()...)
	}
	// Record times are globally non-decreasing across windows, so the
	// sorted batch keeps g.expiry monotone; tie order within a batch is
	// irrelevant (only the set of events at or before a barrier matters).
	sort.Slice(batch, func(i, j int) bool { return batch[i].at < batch[j].at })
	for _, e := range batch {
		g.counts[e.program]++
		g.expiry = append(g.expiry, e)
	}
	if now > g.now {
		g.now = now
	}
	g.expireTo(now)
	g.maybePublish(now)
}

// advance slides the window and publishes snapshots as time passes. In
// coordinated mode it is a no-op: all mutation happens in Sync.
func (g *Global) advance(now time.Duration) {
	if g.coordinated || now <= g.now {
		return
	}
	g.now = now
	g.expireTo(now)
	g.maybePublish(now)
}

// expireTo drops window entries at or before now.
func (g *Global) expireTo(now time.Duration) {
	for g.head < len(g.expiry) && g.expiry[g.head].at <= now {
		e := g.expiry[g.head]
		g.head++
		g.counts[e.program]--
		if g.counts[e.program] <= 0 {
			delete(g.counts, e.program)
		}
		g.notify(e.program)
	}
	if g.head > 1024 && g.head*2 > len(g.expiry) {
		n := copy(g.expiry, g.expiry[g.head:])
		g.expiry = g.expiry[:n]
		g.head = 0
	}
}

// maybePublish publishes a snapshot when now crosses the lag boundary.
func (g *Global) maybePublish(now time.Duration) {
	if g.lag > 0 && now >= g.nextPublish {
		g.publish()
		for g.nextPublish <= now {
			g.nextPublish += g.lag
		}
	}
}

func (g *Global) record(p trace.ProgramID, now time.Duration) {
	g.advance(now)
	if g.history == 0 {
		return
	}
	g.counts[p]++
	g.expiry = append(g.expiry, expiryEvent{program: p, at: now + g.history})
	g.notify(p)
}

// count returns the count a policy should see at time now.
func (g *Global) count(p trace.ProgramID) int {
	if g.lag == 0 {
		return g.counts[p]
	}
	return g.published[p]
}

func (g *Global) publish() {
	g.published = make(map[trace.ProgramID]int, len(g.counts))
	for p, c := range g.counts {
		g.published[p] = c
	}
	g.version++
}

// notify pushes a live count change to every view caching p. Views'
// cached sets are disjoint structures, so map-iteration order does not
// affect the outcome.
func (g *Global) notify(p trace.ProgramID) {
	if g.lag != 0 {
		return
	}
	for v := range g.subscribers[p] {
		v.pushCount(p, g.counts[p])
	}
}

func (g *Global) subscribe(p trace.ProgramID, v globalView) {
	subs, ok := g.subscribers[p]
	if !ok {
		subs = make(map[globalView]struct{})
		g.subscribers[p] = subs
	}
	subs[v] = struct{}{}
}

func (g *Global) unsubscribe(p trace.ProgramID, v globalView) {
	subs := g.subscribers[p]
	delete(subs, v)
	if len(subs) == 0 {
		delete(g.subscribers, p)
	}
}

// GlobalLFU is an LFU policy whose frequency data comes from the shared
// Global aggregator instead of the local neighborhood history.
type GlobalLFU struct {
	global  *Global
	set     *bucketSet
	version uint64

	// pending buffers this neighborhood's access records between
	// barriers in coordinated mode; only Sync drains it.
	pending []expiryEvent
}

var (
	_ Policy     = (*GlobalLFU)(nil)
	_ globalView = (*GlobalLFU)(nil)
)

// pushCount implements globalView: live count changes land directly in
// the victim-order structure.
func (l *GlobalLFU) pushCount(p trace.ProgramID, count int) {
	l.set.setCount(p, count)
}

// drainPending implements globalView.
func (l *GlobalLFU) drainPending() []expiryEvent {
	out := l.pending
	l.pending = l.pending[:0]
	return out
}

// Name returns "global-lfu".
func (l *GlobalLFU) Name() string { return "global-lfu" }

// Advance slides the shared window and adopts any new published snapshot.
func (l *GlobalLFU) Advance(now time.Duration) {
	l.global.advance(now)
	if l.global.lag > 0 && l.version != l.global.version {
		l.rebuild()
		l.version = l.global.version
	}
}

// rebuild re-scores every cached program from the published snapshot, in
// current victim order so ties keep a deterministic recency order.
func (l *GlobalLFU) rebuild() {
	type pair struct {
		p trace.ProgramID
		c int
	}
	updates := make([]pair, 0, l.set.len())
	l.set.ascend(func(p trace.ProgramID, _ int) bool {
		updates = append(updates, pair{p: p, c: l.global.count(p)})
		return true
	})
	for _, u := range updates {
		l.set.setCount(u.p, u.c)
	}
}

// OnRequest records the access into the shared aggregator (or, in
// coordinated mode, the local barrier buffer) and refreshes local
// recency.
func (l *GlobalLFU) OnRequest(p trace.ProgramID, now time.Duration) {
	l.Advance(now)
	if l.global.coordinated {
		if l.global.history > 0 {
			l.pending = append(l.pending, expiryEvent{program: p, at: now + l.global.history})
		}
	} else {
		l.global.record(p, now)
	}
	if l.set.contains(p) {
		if l.global.lag == 0 {
			l.set.setCount(p, l.global.count(p))
		}
		l.set.touch(p)
	}
}

// CandidateValue returns the globally aggregated count visible now.
func (l *GlobalLFU) CandidateValue(p trace.ProgramID, now time.Duration) int {
	l.Advance(now)
	return l.global.count(p)
}

// OnAdmit starts tracking p at its visible global count.
func (l *GlobalLFU) OnAdmit(p trace.ProgramID, _ time.Duration) {
	l.set.add(p, l.global.count(p))
	if l.global.lag == 0 {
		l.global.subscribe(p, l)
	}
}

// OnEvict stops tracking p.
func (l *GlobalLFU) OnEvict(p trace.ProgramID) {
	l.set.remove(p)
	if l.global.lag == 0 {
		l.global.unsubscribe(p, l)
	}
}

// EvictionOrder yields cached programs from least to most globally
// popular, least recently used first within a score.
func (l *GlobalLFU) EvictionOrder(yield func(p trace.ProgramID, value int) bool) {
	l.set.ascend(yield)
}

// GlobalScorer is the pipeline valuation stage backed by the shared
// Global aggregator: the scorer half of the fused GlobalLFU, with the
// victim-order bookkeeping left to the Pipeline. All neighborhoods'
// requests must be recorded through their GlobalScorer stages for the
// shared counts to be meaningful.
type GlobalScorer struct {
	global  *Global
	sink    ScoreSink
	version uint64

	// pending buffers this neighborhood's access records between
	// barriers in coordinated mode; only Sync drains it.
	pending []expiryEvent
}

var (
	_ Scorer     = (*GlobalScorer)(nil)
	_ globalView = (*GlobalScorer)(nil)
)

// pushCount implements globalView: live count changes flow through the
// pipeline's sink.
func (sc *GlobalScorer) pushCount(p trace.ProgramID, count int) {
	sc.sink.Update(p, count)
}

// drainPending implements globalView.
func (sc *GlobalScorer) drainPending() []expiryEvent {
	out := sc.pending
	sc.pending = sc.pending[:0]
	return out
}

// Name returns "global-freq".
func (sc *GlobalScorer) Name() string { return "global-freq" }

// Bind attaches the pipeline's score sink.
func (sc *GlobalScorer) Bind(sink ScoreSink) { sc.sink = sink }

// Advance slides the shared window and, when a new popularity snapshot
// has been published, re-scores this neighborhood's cached set from it.
func (sc *GlobalScorer) Advance(now time.Duration) {
	sc.global.advance(now)
	if sc.global.lag > 0 && sc.version != sc.global.version {
		sc.sink.Rescore(func(p trace.ProgramID) int { return sc.global.count(p) })
		sc.version = sc.global.version
	}
}

// OnRequest records the access into the shared aggregator (or, in
// coordinated mode, the local barrier buffer).
func (sc *GlobalScorer) OnRequest(p trace.ProgramID, now time.Duration) {
	sc.Advance(now)
	if sc.global.coordinated {
		if sc.global.history > 0 {
			sc.pending = append(sc.pending, expiryEvent{program: p, at: now + sc.global.history})
		}
	} else {
		sc.global.record(p, now)
	}
}

// Score returns the globally aggregated count visible now.
func (sc *GlobalScorer) Score(p trace.ProgramID, now time.Duration) int {
	sc.Advance(now)
	return sc.global.count(p)
}

// OnAdmit subscribes the pipeline to live count changes for p.
func (sc *GlobalScorer) OnAdmit(p trace.ProgramID, _ time.Duration) {
	if sc.global.lag == 0 {
		sc.global.subscribe(p, sc)
	}
}

// OnEvict unsubscribes p.
func (sc *GlobalScorer) OnEvict(p trace.ProgramID) {
	if sc.global.lag == 0 {
		sc.global.unsubscribe(p, sc)
	}
}

// scoreNow is the GlobalScorer's advanced-state fast path (see
// scoredNow in pipeline.go).
func (sc *GlobalScorer) scoreNow(_ Key, p trace.ProgramID) int { return sc.global.count(p) }
