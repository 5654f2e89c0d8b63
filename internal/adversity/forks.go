package adversity

import (
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// ForkOptions tunes a comparative fork run. The zero value restores each
// arm at the snapshot's parallelism and reports the incident window from
// the fork point to the end of the replay.
type ForkOptions struct {
	// Parallelism, when non-zero, overrides each arm's worker-pool
	// width. Results are bit-identical at every level.
	Parallelism int

	// IncidentFrom and IncidentTo bound the coax-stress report window.
	// Zero IncidentFrom means the fork point; zero IncidentTo means the
	// end of the replayed records.
	IncidentFrom, IncidentTo time.Duration
}

// ForkArm is one strategy's outcome over the post-fork window.
type ForkArm struct {
	// Strategy is the arm's strategy name.
	Strategy string

	// HitRatio is the segment hit ratio over requests served after the
	// fork point (not diluted by the shared warm-up history).
	HitRatio float64

	// Savings is 1 - serverBits/demandBits over the post-fork window:
	// the fraction of demand the cooperative cache absorbed while the
	// incident played out.
	Savings float64

	// CoaxP95 is the 95th-percentile per-neighborhood coax broadcast
	// rate over the incident window.
	CoaxP95 units.BitRate

	// Result is the arm's full end-of-run result.
	Result *core.Result
}

// ForkReport compares N strategies raced from one warm snapshot through
// the same incident.
type ForkReport struct {
	// At is the fork point (the snapshot's virtual clock).
	At time.Duration

	// From and To are the resolved incident report window.
	From, To time.Duration

	// Baseline is the counter state every arm inherited.
	Baseline core.Counters

	// Arms are the per-strategy outcomes, in the order requested.
	Arms []ForkArm
}

// RunForks restores the snapshot once per strategy and replays future
// through every arm concurrently. Each arm inherits the same warm caches,
// in-flight sessions and pending disruptions; only the decision policy
// differs, so the report isolates the strategy's contribution to riding
// out whatever the disruption schedule does next.
//
// future must be the records after the snapshot point, in timestamp
// order — the tail of the same trace the snapshotted run was consuming.
func RunForks(st *core.SystemState, strategies []string, future []trace.Record, opts ForkOptions) (*ForkReport, error) {
	if st == nil {
		return nil, fmt.Errorf("adversity: nil snapshot")
	}
	if len(strategies) == 0 {
		return nil, fmt.Errorf("adversity: no fork strategies")
	}
	seen := make(map[string]bool, len(strategies))
	for _, s := range strategies {
		if s == "" {
			return nil, fmt.Errorf("adversity: empty fork strategy name")
		}
		if seen[s] {
			return nil, fmt.Errorf("adversity: duplicate fork strategy %q", s)
		}
		seen[s] = true
	}

	from := opts.IncidentFrom
	if from == 0 {
		from = st.At()
	}
	to := opts.IncidentTo
	if to == 0 {
		to = replayEnd(st.At(), future)
	}
	if to <= from {
		return nil, fmt.Errorf("adversity: incident window [%v, %v) is empty", from, to)
	}

	baseCounters := st.TotalCounters()
	baseServer, baseDemand := st.TotalBits()

	report := &ForkReport{At: st.At(), From: from, To: to, Baseline: baseCounters, Arms: make([]ForkArm, len(strategies))}
	errs := make([]error, len(strategies))
	var wg sync.WaitGroup
	for i, strategy := range strategies {
		wg.Add(1)
		go func(i int, strategy string) {
			defer wg.Done()
			arm, err := runArm(st, strategy, future, opts, from, to, baseCounters, baseServer, baseDemand)
			if err != nil {
				errs[i] = fmt.Errorf("adversity: fork arm %q: %w", strategy, err)
				return
			}
			report.Arms[i] = arm
		}(i, strategy)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return report, nil
}

// runArm restores one arm, replays the future through it, and measures
// the post-fork window.
func runArm(st *core.SystemState, strategy string, future []trace.Record, opts ForkOptions, from, to time.Duration, base core.Counters, baseServer, baseDemand int64) (ForkArm, error) {
	sys, err := core.RestoreSystem(st, core.RestoreOptions{Strategy: strategy, Parallelism: opts.Parallelism})
	if err != nil {
		return ForkArm{}, err
	}
	if err := sys.SubmitBatch(future); err != nil {
		return ForkArm{}, err
	}
	res, err := sys.Close()
	if err != nil {
		return ForkArm{}, err
	}

	arm := ForkArm{Strategy: strategy, Result: res}
	hits := res.Counters.Hits - base.Hits
	reqs := res.Counters.SegmentRequests - base.SegmentRequests
	if reqs > 0 {
		arm.HitRatio = float64(hits) / float64(reqs)
	}
	server, demand := sys.TotalBits()
	if d := demand - baseDemand; d > 0 {
		arm.Savings = 1 - float64(server-baseServer)/float64(d)
	}
	arm.CoaxP95 = sys.CoaxWindowStats(int64(from/time.Hour), ceilHour(to)).P95
	return arm, nil
}

// replayEnd finds when the last replayed playback finishes.
func replayEnd(at time.Duration, future []trace.Record) time.Duration {
	end := at
	for _, r := range future {
		if e := r.End(); e > end {
			end = e
		}
	}
	return end
}

// ceilHour converts a duration to an exclusive absolute-hour bound.
func ceilHour(d time.Duration) int64 {
	h := int64(d / time.Hour)
	if d%time.Hour != 0 {
		h++
	}
	return h
}

// fmtHours renders a virtual-clock instant compactly: whole hours as
// "36h", anything else in Go duration syntax.
func fmtHours(d time.Duration) string {
	if d%time.Hour == 0 {
		return fmt.Sprintf("%dh", int64(d/time.Hour))
	}
	return d.String()
}

// Table renders the report as an aligned text table for terminals and
// logs: one row per arm, best post-fork savings marked.
func (r *ForkReport) Table() string {
	best := -1
	for i, arm := range r.Arms {
		if best == -1 || arm.Savings > r.Arms[best].Savings {
			best = i
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fork at %s — %d arms, incident window %s..%s\n",
		fmtHours(r.At), len(r.Arms), fmtHours(r.From), fmtHours(r.To))
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "STRATEGY\tHIT RATIO\tSAVINGS\tCOAX P95\t")
	for i, arm := range r.Arms {
		mark := ""
		if i == best && len(r.Arms) > 1 {
			mark = " *"
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t%v\t%s\n",
			arm.Strategy, arm.HitRatio, arm.Savings*100, arm.CoaxP95, mark)
	}
	tw.Flush()
	if len(r.Arms) > 1 {
		b.WriteString("* best post-fork savings\n")
	}
	return b.String()
}

// Strategies returns the arm names in report order.
func (r *ForkReport) Strategies() []string {
	out := make([]string, len(r.Arms))
	for i, arm := range r.Arms {
		out[i] = arm.Strategy
	}
	return out
}

// BestArm returns the arm with the highest post-fork savings (first on
// ties in report order).
func (r *ForkReport) BestArm() *ForkArm {
	if len(r.Arms) == 0 {
		return nil
	}
	best := 0
	for i := range r.Arms {
		if r.Arms[i].Savings > r.Arms[best].Savings {
			best = i
		}
	}
	return &r.Arms[best]
}
