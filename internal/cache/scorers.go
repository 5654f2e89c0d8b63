package cache

import (
	"fmt"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// Built-in pipeline stages. The first three scorers replicate the fused
// v1 policies' valuation bookkeeping exactly (constant = LRU, windowed
// frequency = LFU, future window = Oracle; the global-popularity scorer
// lives in global.go next to its aggregator), so pipelines assembled
// from them are bit-identical to the fused implementations. The
// remaining stages are new compositions enabled by the split: last-two-
// reference recency, size-aware frequency, admission filters, and
// popularity-scaled placement plans.

// constantScorer values every program identically: eviction order and
// admission reduce to the tiebreak, which is plain LRU/FIFO.
type constantScorer struct {
	name  string
	score int
}

// NewConstantScorer returns a scorer valuing every program at score.
// With TiebreakLRU this composes to the paper's LRU policy.
func NewConstantScorer(name string, score int) Scorer {
	return &constantScorer{name: name, score: score}
}

func (c *constantScorer) Name() string                             { return c.name }
func (c *constantScorer) Bind(ScoreSink)                           {}
func (c *constantScorer) Advance(time.Duration)                    {}
func (c *constantScorer) OnRequest(trace.ProgramID, time.Duration) {}
func (c *constantScorer) Score(trace.ProgramID, time.Duration) int { return c.score }
func (c *constantScorer) OnAdmit(trace.ProgramID, time.Duration)   {}
func (c *constantScorer) OnEvict(trace.ProgramID)                  {}

// frequencyScorer scores programs by access count over a sliding
// history window — the LFU valuation (Section IV-B.2). History 0
// degenerates into a constant 0 (= LRU), matching Figure 11's leftmost
// point.
type frequencyScorer struct {
	history time.Duration

	// counts is the windowed access count by program-table key; a
	// nonzero count holds its program's key. tab is the bound
	// pipeline's table, or a private one for a scorer used on its own.
	tab    *programTable
	counts []int32
	sink   ScoreSink
	up     keyedSink // sink's keyed fast path, nil if none

	// expiry is a FIFO of recorded accesses; times are monotone, so a
	// plain queue suffices to decay counts as the window slides. Each
	// entry carries the key it was counted under (its pending count
	// keeps the key live until it expires).
	expiry []keyedExpiry
	head   int
	now    time.Duration
}

type keyedExpiry struct {
	at  time.Duration // time the access leaves the window
	key Key
}

// NewFrequencyScorer returns a windowed-frequency scorer.
func NewFrequencyScorer(history time.Duration) (Scorer, error) {
	if history < 0 {
		return nil, fmt.Errorf("cache: negative frequency history %v", history)
	}
	return &frequencyScorer{history: history, tab: newProgramTable()}, nil
}

func (f *frequencyScorer) Name() string { return "freq" }
func (f *frequencyScorer) Bind(sink ScoreSink) {
	f.sink = sink
	f.up = keyedSinkOn(sink, f.tab)
}

// keyedSinkOn returns sink's keyed fast path when it shares tab.
func keyedSinkOn(sink ScoreSink, tab *programTable) keyedSink {
	if ks, ok := sink.(keyedSink); ok && ks.table() == tab {
		return ks
	}
	return nil
}

func (f *frequencyScorer) bindTable(t *programTable) { f.tab = t }

// countOf returns the windowed count of key k (NoKey allowed).
func (f *frequencyScorer) countOf(k Key) int {
	if uint(k) < uint(len(f.counts)) {
		return int(f.counts[k])
	}
	return 0
}

// pushKey delivers key k's new score to the sink: by key when the
// sink shares the table, else by program when the sink caches it.
func pushKey(up keyedSink, sink ScoreSink, tab *programTable, k Key, score int) {
	if up != nil {
		up.updateKey(k, score)
	} else if p := tab.program(k); sink.Contains(p) {
		sink.Update(p, score)
	}
}

// Advance slides the history window to end at now, decaying counts and
// pushing changed scores of cached programs into the sink.
func (f *frequencyScorer) Advance(now time.Duration) {
	if now < f.now {
		panic(fmt.Sprintf("cache: frequency scorer time went backwards: %v < %v", now, f.now))
	}
	f.now = now
	for f.head < len(f.expiry) && f.expiry[f.head].at <= now {
		k := f.expiry[f.head].key
		f.head++
		c := f.counts[k] - 1
		f.counts[k] = c
		pushKey(f.up, f.sink, f.tab, k, int(c))
		if c == 0 {
			f.tab.release(k, holdCounted)
		}
	}
	if f.head > 1024 && f.head*2 > len(f.expiry) {
		n := copy(f.expiry, f.expiry[f.head:])
		f.expiry = f.expiry[:n]
		f.head = 0
	}
}

func (f *frequencyScorer) OnRequest(p trace.ProgramID, now time.Duration) { f.requestKey(p, now) }

// requestKey implements keyedScorer: the request is counted under p's
// key, which the count holds for the length of the window.
func (f *frequencyScorer) requestKey(p trace.ProgramID, now time.Duration) Key {
	f.Advance(now)
	if f.history <= 0 {
		return f.tab.lookup(p)
	}
	k := f.tab.acquire(p, holdCounted)
	f.counts = GrowKeyed(f.counts, k)
	f.counts[k]++
	f.expiry = append(f.expiry, keyedExpiry{key: k, at: now + f.history})
	return k
}

func (f *frequencyScorer) Score(p trace.ProgramID, now time.Duration) int {
	f.Advance(now)
	return f.countOf(f.tab.lookup(p))
}

func (f *frequencyScorer) OnAdmit(trace.ProgramID, time.Duration) {}
func (f *frequencyScorer) OnEvict(trace.ProgramID)                {}

// oracleScorer scores programs by the number of accesses they will
// receive in the next lookahead of simulated time — the idealized
// valuation behind the Oracle benchmark. Scores are maintained
// event-wise from the precomputed window-entry and window-exit streams,
// O(1) amortized per indexed access.
type oracleScorer struct {
	lookahead time.Duration

	// counts is the in-window access count by program-table key; a
	// nonzero count holds its program's key (see frequencyScorer).
	tab    *programTable
	counts []int32
	sink   ScoreSink
	up     keyedSink // sink's keyed fast path, nil if none

	// incs[i] is access i entering the window and decs[i] the same
	// access leaving it (the streams are one time-sorted index, shifted
	// by the lookahead). An entry records the key it counted under, so
	// the matching exit needs no lookup.
	incs    []oracleEntry
	decs    []futureAccess
	incHead int
	decHead int
	now     time.Duration
	started bool
}

type oracleEntry struct {
	at      time.Duration
	program trace.ProgramID
	key     Key
}

// NewOracleScorer returns a future-knowledge scorer over idx.
func NewOracleScorer(idx *FutureIndex, lookahead time.Duration) (Scorer, error) {
	if idx == nil {
		return nil, fmt.Errorf("cache: oracle scorer requires a future index")
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("cache: oracle scorer lookahead must be positive, got %v", lookahead)
	}
	o := &oracleScorer{
		lookahead: lookahead,
		tab:       newProgramTable(),
		decs:      idx.all,
	}
	o.incs = make([]oracleEntry, len(idx.all))
	for i, a := range idx.all {
		o.incs[i] = oracleEntry{at: a.at - lookahead, program: a.program}
	}
	return o, nil
}

func (o *oracleScorer) Name() string { return "future" }
func (o *oracleScorer) Bind(sink ScoreSink) {
	o.sink = sink
	o.up = keyedSinkOn(sink, o.tab)
}

func (o *oracleScorer) bindTable(t *programTable) { o.tab = t }

func (o *oracleScorer) countOf(k Key) int {
	if uint(k) < uint(len(o.counts)) {
		return int(o.counts[k])
	}
	return 0
}

// Advance slides the future window to [now, now+lookahead), pushing
// changed scores of cached programs into the sink.
func (o *oracleScorer) Advance(now time.Duration) {
	if o.started && now < o.now {
		panic(fmt.Sprintf("cache: oracle scorer time went backwards: %v < %v", now, o.now))
	}
	o.now = now
	o.started = true
	for o.incHead < len(o.incs) && o.incs[o.incHead].at <= now {
		e := &o.incs[o.incHead]
		o.incHead++
		k := o.tab.acquire(e.program, holdCounted)
		e.key = k
		o.counts = GrowKeyed(o.counts, k)
		o.counts[k]++
		pushKey(o.up, o.sink, o.tab, k, int(o.counts[k]))
	}
	// An access leaves the window lookahead after it entered, so its
	// entry was processed above or earlier and recorded the key.
	for o.decHead < len(o.decs) && o.decs[o.decHead].at <= now {
		k := o.incs[o.decHead].key
		o.decHead++
		c := o.counts[k] - 1
		o.counts[k] = c
		pushKey(o.up, o.sink, o.tab, k, int(c))
		if c == 0 {
			o.tab.release(k, holdCounted)
		}
	}
}

func (o *oracleScorer) OnRequest(_ trace.ProgramID, now time.Duration) { o.Advance(now) }

// requestKey implements keyedScorer.
func (o *oracleScorer) requestKey(p trace.ProgramID, now time.Duration) Key {
	o.Advance(now)
	return o.tab.lookup(p)
}

func (o *oracleScorer) Score(p trace.ProgramID, now time.Duration) int {
	o.Advance(now)
	return o.countOf(o.tab.lookup(p))
}

func (o *oracleScorer) OnAdmit(trace.ProgramID, time.Duration) {}
func (o *oracleScorer) OnEvict(trace.ProgramID)                {}

// recency2Scorer scores programs by their second-most-recent reference
// (LRU-2), quantized to a time grain so the victim-order structure
// keeps a bounded number of score buckets: programs referenced once
// ever score 0 and evict before any program referenced twice; among the
// twice-referenced, the one whose penultimate reference is oldest
// evicts first. One-hit wonders — the bulk of a VoD catalog — never
// outrank proven repeaters.
type recency2Scorer struct {
	quantum time.Duration
	last    map[trace.ProgramID]time.Duration
	prev    map[trace.ProgramID]time.Duration
}

// NewRecency2Scorer returns an LRU-2 scorer with the given quantization
// grain (0 = one hour).
func NewRecency2Scorer(quantum time.Duration) (Scorer, error) {
	if quantum < 0 {
		return nil, fmt.Errorf("cache: negative recency2 quantum %v", quantum)
	}
	if quantum == 0 {
		quantum = time.Hour
	}
	return &recency2Scorer{
		quantum: quantum,
		last:    make(map[trace.ProgramID]time.Duration),
		prev:    make(map[trace.ProgramID]time.Duration),
	}, nil
}

func (r *recency2Scorer) Name() string          { return "recency2" }
func (r *recency2Scorer) Bind(ScoreSink)        {}
func (r *recency2Scorer) Advance(time.Duration) {}

// OnRequest shifts the reference history: the old last reference
// becomes the penultimate one. Reference history survives eviction —
// LRU-K's defining property.
func (r *recency2Scorer) OnRequest(p trace.ProgramID, now time.Duration) {
	if last, ok := r.last[p]; ok {
		r.prev[p] = last
	}
	r.last[p] = now
}

func (r *recency2Scorer) Score(p trace.ProgramID, _ time.Duration) int {
	prev, ok := r.prev[p]
	if !ok {
		return 0
	}
	return int(prev/r.quantum) + 1
}

func (r *recency2Scorer) OnAdmit(trace.ProgramID, time.Duration) {}
func (r *recency2Scorer) OnEvict(trace.ProgramID)                {}

// sizeFrequencyScorer scores programs by windowed access count scaled
// down by stored size (in segments) — the GDSF family's frequency/size
// value. Small programs need fewer accesses to earn their bytes, so the
// cache holds many short popular programs instead of a few long ones.
type sizeFrequencyScorer struct {
	freq     *frequencyScorer
	segments func(p trace.ProgramID) int
}

// sizeFrequencyScale keeps integer precision when dividing counts by
// segment counts (programs run up to ~25 segments at two hours).
const sizeFrequencyScale = 64

// NewSizeFrequencyScorer returns a GDSF-style scorer: windowed counts
// over history, scaled by 64/segments(p). segments must return the
// stored segment count of p (values below 1 are treated as 1).
func NewSizeFrequencyScorer(history time.Duration, segments func(p trace.ProgramID) int) (Scorer, error) {
	if segments == nil {
		return nil, fmt.Errorf("cache: size-frequency scorer needs a segment resolver")
	}
	f, err := NewFrequencyScorer(history)
	if err != nil {
		return nil, err
	}
	return &sizeFrequencyScorer{freq: f.(*frequencyScorer), segments: segments}, nil
}

func (s *sizeFrequencyScorer) value(p trace.ProgramID, count int) int {
	n := s.segments(p)
	if n < 1 {
		n = 1
	}
	return count * sizeFrequencyScale / n
}

func (s *sizeFrequencyScorer) Name() string { return "size-freq" }

// Bind interposes a rescaling sink: the inner frequency scorer pushes
// raw count decays, which are translated to scaled scores.
func (s *sizeFrequencyScorer) Bind(sink ScoreSink) {
	rs := &rescaleSink{scorer: s, sink: sink, up: keyedSinkOn(sink, s.freq.tab)}
	s.freq.Bind(rs)
}

func (s *sizeFrequencyScorer) bindTable(t *programTable) { s.freq.bindTable(t) }
func (s *sizeFrequencyScorer) requestKey(p trace.ProgramID, now time.Duration) Key {
	return s.freq.requestKey(p, now)
}

func (s *sizeFrequencyScorer) Advance(now time.Duration) { s.freq.Advance(now) }
func (s *sizeFrequencyScorer) OnRequest(p trace.ProgramID, now time.Duration) {
	s.freq.OnRequest(p, now)
}
func (s *sizeFrequencyScorer) Score(p trace.ProgramID, now time.Duration) int {
	return s.value(p, s.freq.Score(p, now))
}
func (s *sizeFrequencyScorer) OnAdmit(trace.ProgramID, time.Duration) {}
func (s *sizeFrequencyScorer) OnEvict(trace.ProgramID)                {}

// rescaleSink translates the inner frequency scorer's raw count pushes
// into size-scaled scores before they reach the pipeline.
type rescaleSink struct {
	scorer *sizeFrequencyScorer
	sink   ScoreSink
	up     keyedSink // outer sink's keyed fast path, nil if none
}

func (r *rescaleSink) Contains(p trace.ProgramID) bool { return r.sink.Contains(p) }
func (r *rescaleSink) Update(p trace.ProgramID, count int) {
	r.sink.Update(p, r.scorer.value(p, count))
}
func (r *rescaleSink) Rescore(score func(p trace.ProgramID) int) { r.sink.Rescore(score) }

// table and updateKey implement keyedSink over the inner scorer's table.
func (r *rescaleSink) table() *programTable { return r.scorer.freq.tab }
func (r *rescaleSink) updateKey(k Key, count int) {
	p := r.scorer.freq.tab.program(k)
	pushKey(r.up, r.sink, r.scorer.freq.tab, k, r.scorer.value(p, count))
}

// secondTouchAdmission bypasses the cache on a program's first-ever
// request: only programs requested at least twice may be admitted.
// One-hit wonders never displace proven residents.
type secondTouchAdmission struct {
	seen map[trace.ProgramID]uint8
}

// NewSecondTouchAdmission returns a bypass-on-first-touch filter.
func NewSecondTouchAdmission() Admission {
	return &secondTouchAdmission{seen: make(map[trace.ProgramID]uint8)}
}

func (a *secondTouchAdmission) Name() string { return "second-touch" }

func (a *secondTouchAdmission) OnRequest(p trace.ProgramID, _ time.Duration) {
	if a.seen[p] < 2 {
		a.seen[p]++
	}
}

// ShouldAdmit admits from the second request on (the deciding request
// is already recorded, so a count of 1 is a first touch).
func (a *secondTouchAdmission) ShouldAdmit(p trace.ProgramID, _ units.ByteSize, _ time.Duration) bool {
	return a.seen[p] >= 2
}

// sizeCapAdmission rejects programs whose admission size exceeds a
// byte cap: very long programs never crowd out the working set.
type sizeCapAdmission struct {
	max units.ByteSize
}

// NewSizeCapAdmission returns a filter admitting only programs whose
// admission size is at most max bytes.
func NewSizeCapAdmission(max units.ByteSize) (Admission, error) {
	if max <= 0 {
		return nil, fmt.Errorf("cache: size-cap admission needs a positive cap, got %v", max)
	}
	return &sizeCapAdmission{max: max}, nil
}

func (a *sizeCapAdmission) Name() string                             { return "size-cap" }
func (a *sizeCapAdmission) OnRequest(trace.ProgramID, time.Duration) {}
func (a *sizeCapAdmission) ShouldAdmit(_ trace.ProgramID, size units.ByteSize, _ time.Duration) bool {
	return size <= a.max
}

// popularityPrefixPlanner scales cached prefix depth with windowed
// popularity: cold programs keep a short prefix (half of all sessions
// end within the first two segments — the paper's attrition data),
// warming programs keep progressively deeper prefixes, and programs at
// or above wholeAt windowed accesses are kept whole.
type popularityPrefixPlanner struct {
	counter Scorer
	wholeAt int
}

// NewPopularityPrefixPlanner returns a planner whose prefix depth grows
// with the counter's score: depth = base * (1 + score), kept whole at
// wholeAt and above (0 = default threshold of 4). base is the run's
// configured PrefixSegments, or 2 when the run caches whole programs.
func NewPopularityPrefixPlanner(counter Scorer, wholeAt int) (Planner, error) {
	if counter == nil {
		return nil, fmt.Errorf("cache: popularity-prefix planner needs a counter scorer")
	}
	if wholeAt < 0 {
		return nil, fmt.Errorf("cache: negative popularity-prefix threshold %d", wholeAt)
	}
	if wholeAt == 0 {
		wholeAt = 4
	}
	return &popularityPrefixPlanner{counter: counter, wholeAt: wholeAt}, nil
}

func (pp *popularityPrefixPlanner) PlacementPlan(p trace.ProgramID, now time.Duration, def Plan) Plan {
	score := pp.counter.Score(p, now)
	if score >= pp.wholeAt {
		return Plan{PrefixSegments: 0, Replicas: def.Replicas}
	}
	base := def.PrefixSegments
	if base <= 0 {
		base = 2
	}
	return Plan{PrefixSegments: base * (1 + score), Replicas: def.Replicas}
}

// Advanced-state fast paths (see scoredNow in pipeline.go): the current
// score without re-running the monotone-advance bookkeeping.
func (c *constantScorer) scoreNow(Key, trace.ProgramID) int      { return c.score }
func (f *frequencyScorer) scoreNow(k Key, _ trace.ProgramID) int { return f.countOf(k) }
func (o *oracleScorer) scoreNow(k Key, _ trace.ProgramID) int    { return o.countOf(k) }
func (r *recency2Scorer) scoreNow(_ Key, p trace.ProgramID) int  { return r.Score(p, 0) }
func (s *sizeFrequencyScorer) scoreNow(k Key, p trace.ProgramID) int {
	return s.value(p, s.freq.countOf(k))
}
