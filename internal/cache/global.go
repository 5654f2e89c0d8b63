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
// Global is the shared aggregator; GlobalScorer is the per-neighborhood
// pipeline stage that views it. All neighborhoods' requests must be
// recorded through their GlobalScorer stages for the shared counts to be
// meaningful.

// expiryEvent is one recorded access in a history window.
type expiryEvent struct {
	program trace.ProgramID
	at      time.Duration // time the access leaves the window
}

// Global aggregates windowed access counts across all neighborhoods.
//
// A live feed (lag 0) records every request into the shared window as
// it happens and pushes count changes to the views caching the
// program, so it couples neighborhoods per request. A lagged feed is
// observable only through its publications: views buffer their
// requests locally and read the published snapshot, and the engine
// calls Sync at each publication instant, with no policy running, to
// merge the buffers and republish.
type Global struct {
	history time.Duration
	lag     time.Duration

	counts map[trace.ProgramID]int
	expiry fifo[expiryEvent]
	now    time.Duration // a live feed's clock

	// published is the snapshot policies see when lag > 0; version ticks
	// on every publication so policies can rebuild lazily. nextPublish
	// is the next publication instant.
	published   map[trace.ProgramID]int
	version     uint64
	nextPublish time.Duration

	// subscribers maps a program to the scorer views currently caching
	// it, for live (lag == 0) count-change pushes.
	subscribers map[trace.ProgramID]map[*GlobalScorer]struct{}

	// views lists every per-neighborhood scorer handed out, in creation
	// order, so Sync can drain their buffers deterministically.
	views []*GlobalScorer
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
		subscribers: make(map[trace.ProgramID]map[*GlobalScorer]struct{}),
	}, nil
}

// NewScorer returns a pipeline scorer view of the aggregator for one
// neighborhood: the valuation stage of the pipeline-built global-lfu.
func (g *Global) NewScorer() *GlobalScorer {
	sc := &GlobalScorer{global: g}
	g.views = append(g.views, sc)
	return sc
}

// SyncNeeded reports whether a lagged feed must publish before a
// request at time next is processed: the next publication instant has
// been reached. Part of the engine's shard-coupling contract.
func (g *Global) SyncNeeded(next time.Duration) bool {
	return g.lag > 0 && next >= g.nextPublish
}

// Sync merges every view's buffered access records and republishes the
// popularity snapshot as of time now. The engine must call it with no
// policy running concurrently.
func (g *Global) Sync(now time.Duration) {
	var batch []expiryEvent
	for _, v := range g.views {
		batch = append(batch, v.pending...)
		v.pending = v.pending[:0]
	}
	// Record times are globally non-decreasing across windows, so the
	// sorted batch keeps g.expiry monotone; tie order within a batch is
	// irrelevant (only the set of events at or before a barrier matters).
	sort.Slice(batch, func(i, j int) bool { return batch[i].at < batch[j].at })
	for _, e := range batch {
		g.counts[e.program]++
		g.expiry.push(e)
	}
	g.expireTo(now)
	if now >= g.nextPublish {
		g.publish()
		for g.nextPublish <= now {
			g.nextPublish += g.lag
		}
	}
}

// advance slides a live feed's window as time passes.
func (g *Global) advance(now time.Duration) {
	if now <= g.now {
		return
	}
	g.now = now
	g.expireTo(now)
}

// expireTo drops window entries at or before now.
func (g *Global) expireTo(now time.Duration) {
	for g.expiry.len() > 0 && g.expiry.at(0).at <= now {
		e := g.expiry.pop()
		g.counts[e.program]--
		if g.counts[e.program] <= 0 {
			delete(g.counts, e.program)
		}
		g.notify(e.program)
	}
}

// record adds one request to a live feed's window.
func (g *Global) record(p trace.ProgramID, now time.Duration) {
	g.advance(now)
	if g.history == 0 {
		return
	}
	g.counts[p]++
	g.expiry.push(expiryEvent{program: p, at: now + g.history})
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

// notify pushes a live count change to every view caching p, through
// its pipeline's sink. Views' cached sets are disjoint structures, so
// map-iteration order does not affect the outcome.
func (g *Global) notify(p trace.ProgramID) {
	if g.lag != 0 {
		return
	}
	for v := range g.subscribers[p] {
		v.sink.Update(p, g.counts[p])
	}
}

func (g *Global) subscribe(p trace.ProgramID, v *GlobalScorer) {
	subs, ok := g.subscribers[p]
	if !ok {
		subs = make(map[*GlobalScorer]struct{})
		g.subscribers[p] = subs
	}
	subs[v] = struct{}{}
}

func (g *Global) unsubscribe(p trace.ProgramID, v *GlobalScorer) {
	subs := g.subscribers[p]
	delete(subs, v)
	if len(subs) == 0 {
		delete(g.subscribers, p)
	}
}

// GlobalScorer is the pipeline valuation stage backed by the shared
// Global aggregator, with the victim-order bookkeeping left to the
// Pipeline: the valuation of the built-in global-lfu strategy.
type GlobalScorer struct {
	global  *Global
	sink    ScoreSink
	version uint64

	// pending buffers this neighborhood's access records between
	// publications of a lagged feed; only Sync drains it.
	pending []expiryEvent
}

var _ Scorer = (*GlobalScorer)(nil)

// Name returns "global-freq".
func (sc *GlobalScorer) Name() string { return "global-freq" }

// Bind attaches the pipeline's score sink.
func (sc *GlobalScorer) Bind(sink ScoreSink) { sc.sink = sink }

// Advance slides a live feed's shared window or, when a lagged feed has
// published a new popularity snapshot, re-scores this neighborhood's
// cached set from it.
func (sc *GlobalScorer) Advance(now time.Duration) {
	if sc.global.lag == 0 {
		sc.global.advance(now)
		return
	}
	if sc.version != sc.global.version {
		sc.sink.Rescore(func(p trace.ProgramID) int { return sc.global.count(p) })
		sc.version = sc.global.version
	}
}

// OnRequest records the access into a live feed's shared window, or
// into the local buffer a lagged feed's Sync drains.
func (sc *GlobalScorer) OnRequest(p trace.ProgramID, now time.Duration) {
	sc.Advance(now)
	switch {
	case sc.global.lag == 0:
		sc.global.record(p, now)
	case sc.global.history > 0:
		sc.pending = append(sc.pending, expiryEvent{program: p, at: now + sc.global.history})
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
