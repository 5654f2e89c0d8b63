package cache

import (
	"fmt"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// The composable policy pipeline (Policy API v2). A caching strategy is
// assembled from small orthogonal stages instead of one fused Policy
// implementation:
//
//   - Scorer computes the retention value of programs (windowed
//     frequency, future knowledge, constant recency-only, ...).
//   - Admission filters which missed programs may enter the cache at
//     all (bypass-on-first-touch, size caps).
//   - Tiebreak orders programs that share a score (LRU or FIFO).
//   - Planner chooses which segments of an admitted program to keep —
//     prefix depth and replica count — instead of all-or-nothing.
//
// A Pipeline assembles the stages into the existing Policy contract, so
// the Cache container, the engine shards, and the coupler machinery are
// unchanged consumers. The four paper strategies (lru, lfu, oracle,
// global-lfu) are pipeline compositions producing results bit-identical
// to the fused v1 implementations, which remain in this package as the
// reference for equivalence tests.

// Plan is a segment placement plan for one admitted program: how deep a
// prefix to cache and how many copies of each cached segment to keep.
// The zero value of a field means "no constraint": PrefixSegments 0
// keeps the whole program, Replicas below 1 is clamped to 1 copy.
type Plan struct {
	// PrefixSegments caches only the first N segments (0 = whole
	// program).
	PrefixSegments int
	// Replicas is the number of copies kept per cached segment.
	Replicas int
}

// Admitter is an optional Policy extension consulted by the Cache
// before any admission: a missed program is rejected outright when
// ShouldAdmit returns false, regardless of free space or victim values.
// Policies that do not implement it admit whenever the victim-value
// rule allows.
type Admitter interface {
	ShouldAdmit(p trace.ProgramID, size units.ByteSize, now time.Duration) bool
}

// PlacementPlanner is an optional Policy extension consulted by the
// index server when sizing and placing a program: it returns the
// placement plan for p given the run's configured default. Policies
// that do not implement it place the default plan for every program.
type PlacementPlanner interface {
	PlacementPlan(p trace.ProgramID, now time.Duration, def Plan) Plan
}

// ScoreSink receives retention-score changes for cached programs from a
// Scorer. The Pipeline implements it over its victim-order structure;
// scorers whose scores change outside requests (window decay, future
// slides, popularity publications) push the changes here so eviction
// order stays current.
type ScoreSink interface {
	// Contains reports whether p is cached in this pipeline.
	Contains(p trace.ProgramID) bool

	// Update re-scores the cached program p. Score increases mark p
	// most recently used within its new score; decreases mark it least
	// recently used (it decayed). Updating an uncached program panics.
	Update(p trace.ProgramID, score int)

	// Rescore re-scores every cached program from the given function,
	// in current victim order, so ties keep a deterministic recency
	// order. Used by scorers that republish whole snapshots.
	Rescore(score func(p trace.ProgramID) int)
}

// Scorer is the valuation stage of a Pipeline: it observes requests and
// scores programs for admission comparison and eviction ranking. Higher
// scores are more valuable. One Scorer instance backs one Pipeline.
//
// Time advances monotonically across calls. Scorers with asynchronous
// score decay push changes for cached programs through the bound
// ScoreSink.
type Scorer interface {
	// Name identifies the stage ("freq", "future", "recency2", ...).
	Name() string

	// Bind attaches the pipeline's score sink. Called exactly once,
	// before any traffic.
	Bind(sink ScoreSink)

	// Advance moves the scorer's clock to now, processing any pending
	// decay and pushing resulting score changes into the sink.
	Advance(now time.Duration)

	// OnRequest records that p was requested at now, before the hit or
	// miss is resolved.
	OnRequest(p trace.ProgramID, now time.Duration)

	// Score returns p's current retention value at now.
	Score(p trace.ProgramID, now time.Duration) int

	// OnAdmit tells the scorer p entered the cached set.
	OnAdmit(p trace.ProgramID, now time.Duration)

	// OnEvict tells the scorer p left the cached set.
	OnEvict(p trace.ProgramID)
}

// Admission is the filter stage of a Pipeline: it observes requests and
// decides whether a missed program may enter the cache at all. The
// victim-value rule still applies to admitted candidates.
type Admission interface {
	// Name identifies the stage ("second-touch", "size-cap", ...).
	Name() string

	// OnRequest records that p was requested at now (the request being
	// decided is already recorded when ShouldAdmit is consulted).
	OnRequest(p trace.ProgramID, now time.Duration)

	// ShouldAdmit reports whether the missed program p of the given
	// admission size may be considered for admission.
	ShouldAdmit(p trace.ProgramID, size units.ByteSize, now time.Duration) bool
}

// Planner is the segment-placement stage of a Pipeline: it chooses the
// placement plan for each program given the run's configured default
// plan, letting a strategy trade prefix depth and replication per
// program instead of all-or-nothing.
type Planner interface {
	// PlacementPlan returns the plan for p at now. def carries the
	// run's configured defaults (Config.PrefixSegments/Replicas).
	PlacementPlan(p trace.ProgramID, now time.Duration, def Plan) Plan
}

// Tiebreak selects how a Pipeline orders programs sharing a score.
type Tiebreak int

// Tiebreak modes.
const (
	// TiebreakLRU refreshes a cached program's recency on every request
	// — the paper's rule and the default.
	TiebreakLRU Tiebreak = iota
	// TiebreakFIFO keeps insertion order within a score: requests do
	// not refresh recency, so equal-scored programs evict oldest-first.
	TiebreakFIFO
)

// String names the tiebreak mode.
func (t Tiebreak) String() string {
	switch t {
	case TiebreakLRU:
		return "lru"
	case TiebreakFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("tiebreak(%d)", int(t))
	}
}

// PipelineConfig assembles the stages of one Pipeline. Scorer is
// required; nil Admission admits whenever the victim-value rule allows,
// nil Planner places the run-default plan for every program.
type PipelineConfig struct {
	// Name is the assembled policy's strategy name.
	Name string
	// Scorer is the valuation stage (required).
	Scorer Scorer
	// Admission is the optional admission filter stage.
	Admission Admission
	// Planner is the optional segment-placement stage.
	Planner Planner
	// Tiebreak orders programs sharing a score (default TiebreakLRU).
	Tiebreak Tiebreak
}

// Pipeline assembles composable stages into the Policy contract. It
// owns the victim-order structure (score ascending, tiebreak within a
// score) and drives the stages in the exact order the fused v1 policies
// interleaved their bookkeeping, so a pipeline built from equivalent
// stages reproduces a fused policy's decisions bit for bit.
//
// A pipeline also owns the program table its victim order and its
// built-in scorer are keyed by; a Cache driving the pipeline adopts the
// same table, so one request resolves its program once.
type Pipeline struct {
	name      string
	scorer    Scorer
	fast      scoredNow   // scorer's read-only fast path, nil if none
	keyed     keyedScorer // scorer's program-table fast path, nil if none
	admission Admission
	planner   Planner
	tiebreak  Tiebreak
	tab       *programTable
	set       *bucketSet
}

// scoredNow is an optional Scorer fast path the built-in scorers
// implement: the current score without the monotone-advance
// bookkeeping, given p and its key in the pipeline's table (NoKey when
// p holds no live state). Only valid where the Policy contract
// guarantees the scorer was already advanced to the access instant
// (inside an Access, after Advance/OnRequest ran); the pipeline falls
// back to Score for scorers without it.
type scoredNow interface {
	scoreNow(k Key, p trace.ProgramID) int
}

// keyedScorer is the fast path of the built-in scorers that keep
// per-program state: they key it by the pipeline's program table, bound
// before any traffic, and report the requested program's key so the
// pipeline resolves it once per request.
type keyedScorer interface {
	bindTable(t *programTable)
	requestKey(p trace.ProgramID, now time.Duration) Key
}

// keyedSink is the ScoreSink fast path a keyed scorer resolves at Bind
// time, used only when the sink shares the scorer's table: a score push
// by key, a no-op for untracked programs. Sinks without it get the
// Contains-then-Update sequence.
type keyedSink interface {
	table() *programTable
	updateKey(k Key, score int)
}

var (
	_ Policy           = (*Pipeline)(nil)
	_ Admitter         = (*Pipeline)(nil)
	_ PlacementPlanner = (*Pipeline)(nil)
	_ ScoreSink        = (*Pipeline)(nil)
	_ keyedSink        = (*Pipeline)(nil)
	_ keyedPolicy      = (*Pipeline)(nil)
)

// NewPipeline assembles a policy from stages.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cache: pipeline needs a name")
	}
	if cfg.Scorer == nil {
		return nil, fmt.Errorf("cache: pipeline %q needs a scorer stage", cfg.Name)
	}
	switch cfg.Tiebreak {
	case TiebreakLRU, TiebreakFIFO:
	default:
		return nil, fmt.Errorf("cache: pipeline %q: invalid tiebreak %d", cfg.Name, cfg.Tiebreak)
	}
	fast, _ := cfg.Scorer.(scoredNow)
	keyed, _ := cfg.Scorer.(keyedScorer)
	tab := newProgramTable()
	pl := &Pipeline{
		name:      cfg.Name,
		scorer:    cfg.Scorer,
		fast:      fast,
		keyed:     keyed,
		admission: cfg.Admission,
		planner:   cfg.Planner,
		tiebreak:  cfg.Tiebreak,
		tab:       tab,
		set:       newBucketSetOn(tab),
	}
	if keyed != nil {
		keyed.bindTable(tab)
	}
	pl.scorer.Bind(pl)
	return pl, nil
}

// scoreKey returns p's score at now, using the scorer's advanced-state
// fast path when it has one. k is p's key (NoKey when p holds none).
// Callers must be inside an access cycle whose Advance/OnRequest
// already ran at now.
func (pl *Pipeline) scoreKey(k Key, p trace.ProgramID, now time.Duration) int {
	if pl.fast != nil {
		return pl.fast.scoreNow(k, p)
	}
	return pl.scorer.Score(p, now)
}

// Name returns the assembled strategy name.
func (pl *Pipeline) Name() string { return pl.name }

// Scorer returns the valuation stage.
func (pl *Pipeline) Scorer() Scorer { return pl.scorer }

// Planner returns the segment-placement stage, nil if none.
func (pl *Pipeline) Planner() Planner { return pl.planner }

// Advance moves the scorer's clock, processing pending decay.
func (pl *Pipeline) Advance(now time.Duration) { pl.scorer.Advance(now) }

// OnRequest records the request with every stage, then refreshes the
// cached entry's score and (under TiebreakLRU) recency.
func (pl *Pipeline) OnRequest(p trace.ProgramID, now time.Duration) { pl.request(p, now) }

// request is OnRequest returning p's key. The key is resolved once —
// by a keyed scorer while it counts the request, else by one table
// lookup — and the entry's bucket moves reuse it; this runs for every
// submitted record.
func (pl *Pipeline) request(p trace.ProgramID, now time.Duration) Key {
	var k Key
	if pl.keyed != nil {
		k = pl.keyed.requestKey(p, now)
	} else {
		pl.scorer.OnRequest(p, now)
		k = pl.tab.lookup(p)
	}
	if pl.admission != nil {
		pl.admission.OnRequest(p, now)
	}
	if n := pl.set.node(k); n != nil {
		pl.set.setCountNode(n, pl.scoreKey(k, p, now))
		if pl.tiebreak == TiebreakLRU {
			pl.set.touchNode(n)
		}
	}
	return k
}

// CandidateValue returns the scorer's value for the uncached candidate.
func (pl *Pipeline) CandidateValue(p trace.ProgramID, now time.Duration) int {
	return pl.scoreKey(pl.tab.lookup(p), p, now)
}

func (pl *Pipeline) candidate(k Key, p trace.ProgramID, now time.Duration) int {
	return pl.scoreKey(k, p, now)
}

// ShouldAdmit consults the admission stage (no stage admits always).
func (pl *Pipeline) ShouldAdmit(p trace.ProgramID, size units.ByteSize, now time.Duration) bool {
	if pl.admission == nil {
		return true
	}
	return pl.admission.ShouldAdmit(p, size, now)
}

// PlacementPlan consults the planner stage (no stage keeps the run
// default for every program).
func (pl *Pipeline) PlacementPlan(p trace.ProgramID, now time.Duration, def Plan) Plan {
	if pl.planner == nil {
		return def
	}
	return pl.planner.PlacementPlan(p, now, def)
}

// OnAdmit starts tracking p at its current score.
func (pl *Pipeline) OnAdmit(p trace.ProgramID, now time.Duration) {
	pl.admit(pl.tab.lookup(p), p, now)
}

func (pl *Pipeline) admit(k Key, p trace.ProgramID, now time.Duration) {
	pl.set.addKey(k, p, pl.scoreKey(k, p, now))
	pl.scorer.OnAdmit(p, now)
}

// OnEvict stops tracking p.
func (pl *Pipeline) OnEvict(p trace.ProgramID) { pl.evict(pl.tab.lookup(p), p) }

func (pl *Pipeline) evict(k Key, p trace.ProgramID) {
	n := pl.set.node(k)
	if n == nil {
		panic(fmt.Sprintf("cache: program %d not tracked", p))
	}
	pl.set.removeNode(n)
	pl.scorer.OnEvict(p)
}

// EvictionOrder yields cached programs from least to most valuable,
// tiebreak order within a score.
func (pl *Pipeline) EvictionOrder(yield func(p trace.ProgramID, value int) bool) {
	pl.set.ascend(yield)
}

func (pl *Pipeline) ascendKeys(yield func(k Key, p trace.ProgramID, value int) bool) {
	pl.set.ascendKeys(yield)
}

// Contains implements ScoreSink.
func (pl *Pipeline) Contains(p trace.ProgramID) bool { return pl.set.contains(p) }

// Update implements ScoreSink.
func (pl *Pipeline) Update(p trace.ProgramID, score int) { pl.set.setCount(p, score) }

// table and updateKey implement keyedSink.
func (pl *Pipeline) table() *programTable { return pl.tab }

func (pl *Pipeline) updateKey(k Key, score int) {
	if n := pl.set.node(k); n != nil {
		pl.set.setCountNode(n, score)
	}
}

// Rescore implements ScoreSink: scores are collected in current victim
// order first, then applied in that order, exactly like the fused
// global-lfu snapshot rebuild.
func (pl *Pipeline) Rescore(score func(p trace.ProgramID) int) {
	type pair struct {
		k Key
		c int
	}
	updates := make([]pair, 0, pl.set.len())
	pl.set.ascendKeys(func(k Key, p trace.ProgramID, _ int) bool {
		updates = append(updates, pair{k: k, c: score(p)})
		return true
	})
	for _, u := range updates {
		pl.set.setCountNode(pl.set.node(u.k), u.c)
	}
}
