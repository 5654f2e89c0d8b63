package spec

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/scenario"
	"cablevod/internal/units"
)

// metricDef extracts one checkpoint-series metric a predicate can
// reference at checkpoint index i; ok is false where the metric is
// undefined (e.g. a windowed ratio over a window with no requests).
// Windowed metrics read the delta between consecutive checkpoints, so
// they describe what happened since the previous checkpoint; running
// metrics read the engine's cumulative aggregates at the instant.
type metricDef func(ev *evaluator, i int) (v float64, ok bool)

// metricDefs holds every predicate metric; SCENARIOS.md lists them with
// the descriptions given here.
var metricDefs = map[string]metricDef{
	// running segment hit ratio since the scenario start
	"hit_ratio": func(ev *evaluator, i int) (float64, bool) {
		return ev.cps[i].Metrics.HitRatio(), true
	},
	// segment hit ratio over the window since the previous checkpoint
	"window_hit_ratio": func(ev *evaluator, i int) (float64, bool) {
		cur := ev.cps[i].Metrics.Counters
		var hits, reqs uint64 = cur.Hits, cur.SegmentRequests
		if i > 0 {
			prev := ev.cps[i-1].Metrics.Counters
			hits -= prev.Hits
			reqs -= prev.SegmentRequests
		}
		if reqs == 0 {
			return 0, false
		}
		return float64(hits) / float64(reqs), true
	},
	// running transfer savings against the uncached baseline
	"savings": func(ev *evaluator, i int) (float64, bool) {
		return ev.cps[i].Metrics.Savings(), true
	},
	// central-server send rate over the window since the previous checkpoint (bits/s)
	"server_bps": func(ev *evaluator, i int) (float64, bool) {
		return ev.windowedRate(i, func(m core.Metrics) int64 { return m.ServerBits })
	},
	// uncached-demand rate over the window since the previous checkpoint (bits/s)
	"demand_bps": func(ev *evaluator, i int) (float64, bool) {
		return ev.windowedRate(i, func(m core.Metrics) int64 { return m.DemandBits })
	},
	// running average central-server rate since the scenario start (bits/s)
	"server_avg_bps": func(ev *evaluator, i int) (float64, bool) {
		return float64(ev.cps[i].Metrics.ServerRate), true
	},
	// sessions playing at the checkpoint instant
	"active_sessions": func(ev *evaluator, i int) (float64, bool) {
		return float64(ev.cps[i].Metrics.ActiveSessions), true
	},
	// cumulative sessions started
	"sessions": func(ev *evaluator, i int) (float64, bool) {
		return float64(ev.cps[i].Metrics.Counters.Sessions), true
	},
	// pooled cache fill fraction across all neighborhoods
	"cache_occupancy": func(ev *evaluator, i int) (float64, bool) {
		m := ev.cps[i].Metrics
		if m.CacheCapacity == 0 {
			return 0, false
		}
		return float64(m.CacheUsed) / float64(m.CacheCapacity), true
	},
	// program copies resident across all pooled caches
	"cached_programs": func(ev *evaluator, i int) (float64, bool) {
		return float64(ev.cps[i].Metrics.CachedPrograms), true
	},
	// running per-neighborhood average coax load (bits/s)
	"coax_avg_bps": func(ev *evaluator, i int) (float64, bool) {
		return float64(ev.cps[i].Metrics.CoaxRate), true
	},
	// 95th percentile across neighborhoods of running average coax load (bits/s)
	"coax_p95_bps": func(ev *evaluator, i int) (float64, bool) {
		return ev.neighborhoodP95(i, func(n core.NeighborhoodMetrics) float64 {
			return float64(n.CoaxRate)
		})
	},
	// 95th percentile across neighborhoods of coax load over coax capacity
	"coax_p95_utilization": func(ev *evaluator, i int) (float64, bool) {
		if ev.coaxCapacity <= 0 {
			return 0, false
		}
		return ev.neighborhoodP95(i, func(n core.NeighborhoodMetrics) float64 {
			return float64(n.CoaxRate) / float64(ev.coaxCapacity)
		})
	},
	// worst per-neighborhood running hit ratio
	"min_neighborhood_hit_ratio": func(ev *evaluator, i int) (float64, bool) {
		nbs := ev.cps[i].Metrics.PerNeighborhood
		if len(nbs) == 0 {
			return 0, false
		}
		min := math.Inf(1)
		for _, n := range nbs {
			if n.HitRatio < min {
				min = n.HitRatio
			}
		}
		return min, true
	},
}

// MetricNames lists every predicate metric, sorted.
func MetricNames() string {
	names := make([]string, 0, len(metricDefs))
	for n := range metricDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// evaluator evaluates predicates over one run's checkpoint series.
type evaluator struct {
	file         *File
	cps          []scenario.Checkpoint
	coaxCapacity units.BitRate
}

// windowedRate computes a bits counter's delta rate over the window
// ending at checkpoint i.
func (ev *evaluator) windowedRate(i int, bits func(core.Metrics) int64) (float64, bool) {
	var prevBits int64
	var prevAt time.Duration
	if i > 0 {
		prevBits = bits(ev.cps[i-1].Metrics)
		prevAt = ev.cps[i-1].At
	}
	window := ev.cps[i].At - prevAt
	if window <= 0 {
		return 0, false
	}
	return float64(bits(ev.cps[i].Metrics)-prevBits) / window.Seconds(), true
}

// neighborhoodP95 is the nearest-rank 95th percentile of a
// per-neighborhood quantity at checkpoint i.
func (ev *evaluator) neighborhoodP95(i int, get func(core.NeighborhoodMetrics) float64) (float64, bool) {
	nbs := ev.cps[i].Metrics.PerNeighborhood
	if len(nbs) == 0 {
		return 0, false
	}
	vals := make([]float64, len(nbs))
	for j, n := range nbs {
		vals[j] = get(n)
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(0.95*float64(len(vals)))) - 1
	return vals[rank], true
}

// PredicateResult is one predicate's verdict with the context a failure
// analysis needs.
type PredicateResult struct {
	// Predicate is the assertion evaluated.
	Predicate Predicate

	// Label is the report label (name or position).
	Label string

	// Pass reports the verdict.
	Pass bool

	// Detail explains it: the extreme value for a passing threshold,
	// the first violation or the closest approach for a failure.
	Detail string

	// At is the checkpoint index the detail anchors to (first
	// violation, closest approach), -1 when none applies.
	At int
}

// window resolves a predicate's checkpoint index range. Explicit
// windows are closed ([From, To]); phase scopes cover (From, To] —
// the checkpoints whose closing hour lies inside the phase (a
// checkpoint exactly at the phase start reflects only pre-phase
// records).
func (ev *evaluator) window(p Predicate) (from, to time.Duration, fromExclusive bool) {
	if p.Window != nil {
		return p.Window.From, p.Window.To, false
	}
	ph, _ := ev.file.phase(p.Phase)
	return ph.From, ph.To, true
}

func (ev *evaluator) indicesIn(from, to time.Duration, fromExclusive bool) []int {
	var out []int
	for i, cp := range ev.cps {
		if cp.At > to || cp.At < from || (fromExclusive && cp.At == from) {
			continue
		}
		out = append(out, i)
	}
	return out
}

// evaluate runs one predicate against the series.
func (ev *evaluator) evaluate(p Predicate, i int) PredicateResult {
	res := PredicateResult{Predicate: p, Label: p.Label(i), At: -1}
	switch p.Type {
	case TypeThreshold:
		ev.threshold(p, &res)
	case TypeRecovery:
		ev.recovery(p, &res)
	default:
		res.Detail = fmt.Sprintf("unknown predicate type %q", p.Type)
	}
	return res
}

func (ev *evaluator) threshold(p Predicate, res *PredicateResult) {
	from, to, excl := ev.window(p)
	idx := ev.indicesIn(from, to, excl)
	if len(idx) == 0 {
		res.Detail = fmt.Sprintf("window [%v, %v] holds no checkpoints (%d checkpoints in the series) — check the cadence against the window",
			from, to, len(ev.cps))
		return
	}
	def := metricDefs[p.Metric]
	holds := func(v float64) bool {
		switch p.Op {
		case ">=":
			return v >= p.Value
		case "<=":
			return v <= p.Value
		case ">":
			return v > p.Value
		default:
			return v < p.Value
		}
	}
	// Report the binding extreme: the minimum for lower bounds, the
	// maximum for upper bounds.
	lower := p.Op == ">=" || p.Op == ">"
	extreme, extremeAt := math.NaN(), time.Duration(0)
	seen := 0
	for _, i := range idx {
		v, ok := def(ev, i)
		if !ok {
			continue
		}
		seen++
		if math.IsNaN(extreme) || (lower && v < extreme) || (!lower && v > extreme) {
			extreme, extremeAt = v, ev.cps[i].At
		}
		if !holds(v) && res.At < 0 {
			res.At = i
			res.Detail = fmt.Sprintf("violated at %v: %s = %.6g, want %s %g",
				ev.cps[i].At, p.Metric, v, p.Op, p.Value)
		}
	}
	if seen == 0 {
		res.Detail = fmt.Sprintf("%s is undefined at every checkpoint in [%v, %v]", p.Metric, from, to)
		return
	}
	if res.At >= 0 {
		return
	}
	res.Pass = true
	kind := "min"
	if !lower {
		kind = "max"
	}
	res.Detail = fmt.Sprintf("%s %.6g @ %v over %d checkpoints", kind, extreme, extremeAt, seen)
}

func (ev *evaluator) recovery(p Predicate, res *PredicateResult) {
	ph, _ := ev.file.phase(p.Phase)
	def := metricDefs[p.Metric]

	// Baseline: the last defined value at or before the phase start.
	baseline, baselineAt := math.NaN(), time.Duration(0)
	for i, cp := range ev.cps {
		if cp.At > ph.From {
			break
		}
		if v, ok := def(ev, i); ok {
			baseline, baselineAt = v, cp.At
		}
	}
	if math.IsNaN(baseline) {
		res.Detail = fmt.Sprintf("no checkpoint at or before the phase start %v to take a %s baseline from — start the phase after at least one checkpoint",
			ph.From, p.Metric)
		return
	}

	deviation := func(v float64) float64 {
		if baseline == 0 {
			return math.Abs(v)
		}
		return math.Abs(v-baseline) / math.Abs(baseline)
	}
	deadline := ph.To + p.Within
	closest, closestAt, closestIdx := math.NaN(), time.Duration(0), -1
	candidates := 0
	for i, cp := range ev.cps {
		if cp.At < ph.To || cp.At > deadline {
			continue
		}
		v, ok := def(ev, i)
		if !ok {
			continue
		}
		candidates++
		dev := deviation(v)
		if math.IsNaN(closest) || dev < closest {
			closest, closestAt, closestIdx = dev, cp.At, i
		}
		if dev <= p.Tolerance {
			res.Pass = true
			res.At = i
			res.Detail = fmt.Sprintf("recovered at %v: %s = %.6g, %.2g%% from the %v baseline %.6g",
				cp.At, p.Metric, v, dev*100, baselineAt, baseline)
			return
		}
	}
	if candidates == 0 {
		res.Detail = fmt.Sprintf("no checkpoints between the phase end %v and the deadline %v — check the cadence against the within window",
			ph.To, deadline)
		return
	}
	res.At = closestIdx
	res.Detail = fmt.Sprintf("never recovered: closest %.3g%% from the %v baseline %.6g, at %v (deadline %v, tolerance %g%%)",
		closest*100, baselineAt, baseline, closestAt, deadline, p.Tolerance*100)
}

// TracePoint is one checkpoint's row of the execution trace: the
// instant, the active phases, and every metric the spec's predicates
// reference (plus the core defaults), evaluated once so failures can be
// analyzed without re-running.
type TracePoint struct {
	Index  int
	At     time.Duration
	Phases string
	// Values maps metric name to its value; metrics undefined at this
	// checkpoint are absent.
	Values map[string]float64
}

// traceMetrics is the union of referenced and default trace metrics.
func traceMetrics(f *File) []string {
	set := map[string]bool{
		"hit_ratio": true, "window_hit_ratio": true,
		"server_bps": true, "active_sessions": true,
	}
	for _, p := range f.Assert {
		if _, ok := metricDefs[p.Metric]; ok {
			set[p.Metric] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Evaluate runs every predicate of the spec against a checkpoint series
// and builds the execution trace. coaxCapacity is the per-neighborhood
// coax bandwidth utilization metrics divide by (the resolved engine
// topology's value).
func Evaluate(f *File, cps []scenario.Checkpoint, coaxCapacity units.BitRate) ([]PredicateResult, []TracePoint) {
	ev := &evaluator{file: f, cps: cps, coaxCapacity: coaxCapacity}
	results := make([]PredicateResult, 0, len(f.Assert))
	for i, p := range f.Assert {
		results = append(results, ev.evaluate(p, i))
	}
	names := traceMetrics(f)
	trace := make([]TracePoint, len(cps))
	for i, cp := range cps {
		tp := TracePoint{Index: i, At: cp.At, Phases: cp.Phases, Values: map[string]float64{}}
		for _, n := range names {
			if v, ok := metricDefs[n](ev, i); ok {
				tp.Values[n] = v
			}
		}
		trace[i] = tp
	}
	return results, trace
}

// Report is the outcome of one Harness run: the engine result, the
// checkpoint series and execution trace, and every predicate verdict.
type Report struct {
	// File is the spec that ran.
	File *File

	// Source is the path the spec was loaded from ("" for in-memory
	// specs).
	Source string

	// Parallelism is the worker-pool width the engine ran with.
	Parallelism int

	// Checkpoint is the resolved checkpoint cadence.
	Checkpoint time.Duration

	// Result is the engine's final result.
	Result *core.Result

	// Checkpoints is the Driver's checkpoint series.
	Checkpoints []scenario.Checkpoint

	// Trace is the per-checkpoint execution trace.
	Trace []TracePoint

	// Predicates holds one verdict per spec assertion.
	Predicates []PredicateResult
}

// Pass reports whether every predicate held.
func (r *Report) Pass() bool {
	for _, p := range r.Predicates {
		if !p.Pass {
			return false
		}
	}
	return true
}

// FirstFailure returns the first violated predicate, or nil.
func (r *Report) FirstFailure() *PredicateResult {
	for i := range r.Predicates {
		if !r.Predicates[i].Pass {
			return &r.Predicates[i]
		}
	}
	return nil
}

// Render writes the human-readable report: one verdict line per
// predicate, and for the first failure the surrounding execution-trace
// rows so the violation can be read in context.
func (r *Report) Render(w io.Writer) {
	src := ""
	if r.Source != "" {
		src = " (" + r.Source + ")"
	}
	fmt.Fprintf(w, "spec %s%s — %d checkpoints every %v, parallelism %d\n",
		r.File.Name, src, len(r.Checkpoints), r.Checkpoint, r.Parallelism)
	if len(r.Predicates) == 0 {
		fmt.Fprintf(w, "  no assertions declared\n")
		return
	}
	passed := 0
	for _, p := range r.Predicates {
		verdict := "FAIL"
		if p.Pass {
			verdict = "PASS"
			passed++
		}
		fmt.Fprintf(w, "  %s %-20s %s\n", verdict, p.Label, p.Predicate.describe())
		fmt.Fprintf(w, "       %s\n", p.Detail)
	}
	if f := r.FirstFailure(); f != nil {
		r.renderContext(w, f)
	}
	fmt.Fprintf(w, "result: ")
	if passed == len(r.Predicates) {
		fmt.Fprintf(w, "PASS (%d assertions hold)\n", passed)
	} else {
		fmt.Fprintf(w, "FAIL (%d of %d assertions violated)\n", len(r.Predicates)-passed, len(r.Predicates))
	}
}

// renderContext prints the execution-trace rows around the first
// failure's anchor checkpoint.
func (r *Report) renderContext(w io.Writer, f *PredicateResult) {
	if len(r.Trace) == 0 {
		return
	}
	anchor := f.At
	if anchor < 0 {
		anchor = 0
	}
	lo, hi := anchor-2, anchor+2
	if lo < 0 {
		lo = 0
	}
	if hi > len(r.Trace)-1 {
		hi = len(r.Trace) - 1
	}
	names := traceMetrics(r.File)
	fmt.Fprintf(w, "  checkpoints around the first violation (%s):\n", f.Label)
	fmt.Fprintf(w, "    %-10s %-12s", "at", "phases")
	for _, n := range names {
		fmt.Fprintf(w, " %22s", n)
	}
	fmt.Fprintln(w)
	for _, tp := range r.Trace[lo : hi+1] {
		marker := " "
		if tp.Index == f.At {
			marker = ">"
		}
		phases := tp.Phases
		if phases == "" {
			phases = "-"
		}
		fmt.Fprintf(w, "  %s %-10v %-12s", marker, tp.At, phases)
		for _, n := range names {
			if v, ok := tp.Values[n]; ok {
				fmt.Fprintf(w, " %22.6g", v)
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
