package core

import (
	"fmt"

	"cablevod/internal/metrics"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// Counters aggregates event totals over a run.
type Counters struct {
	Sessions        uint64
	SegmentRequests uint64
	Hits            uint64
	MissNotCached   uint64
	MissUnplaced    uint64
	MissPeerBusy    uint64
	// MissFirstFetch counts segments of the session that admitted the
	// program: the index server is fetching it from the central server
	// (Figure 4), so peers cannot serve it yet.
	MissFirstFetch uint64
	Fills          uint64
	CoaxOverloads  uint64
	// Admissions counts cache admissions (program granularity) across
	// all neighborhoods — a measure of cache churn.
	Admissions uint64
	// Evictions counts programs displaced from caches.
	Evictions uint64
}

// Add folds another counter set into c — the shard-merge operation, an
// exact integer sum field by field.
func (c *Counters) Add(o Counters) {
	c.Sessions += o.Sessions
	c.SegmentRequests += o.SegmentRequests
	c.Hits += o.Hits
	c.MissNotCached += o.MissNotCached
	c.MissUnplaced += o.MissUnplaced
	c.MissPeerBusy += o.MissPeerBusy
	c.MissFirstFetch += o.MissFirstFetch
	c.Fills += o.Fills
	c.CoaxOverloads += o.CoaxOverloads
	c.Admissions += o.Admissions
	c.Evictions += o.Evictions
}

// Misses returns all segment misses.
func (c Counters) Misses() uint64 {
	return c.MissNotCached + c.MissUnplaced + c.MissPeerBusy + c.MissFirstFetch
}

// HitRatio returns segment hits over all segment requests.
func (c Counters) HitRatio() float64 {
	if c.SegmentRequests == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.SegmentRequests)
}

// Result is the outcome of one simulation run.
type Result struct {
	Config   Config
	Days     int
	Counters Counters

	// Server is the central media server's peak-window load — the
	// paper's headline metric ("Average Server Rate").
	Server metrics.RateStats

	// ServerHourly is the server load by hour of day (Figure 7 shape,
	// after caching).
	ServerHourly [24]units.BitRate

	// Demand is the total subscriber demand (the no-cache server load,
	// the 17 Gb/s reference line of Figure 15).
	Demand metrics.RateStats

	// Coax summarizes per-neighborhood broadcast traffic over peak
	// hours, sampled per (neighborhood, hour) — Figure 14.
	Coax metrics.RateStats

	// Neighborhoods is the number of headends simulated.
	Neighborhoods int

	// SavingsVsDemand is 1 - Server.Mean/Demand.Mean.
	SavingsVsDemand float64

	// ServerBits and DemandBits are whole-run transfer totals (all
	// hours, not just peak).
	ServerBits int64
	DemandBits int64
}

// AppliedWarmup is the number of leading days the peak-window
// statistics exclude: Config.WarmupDays, or none when that would cover
// all of the run's Days.
func (r *Result) AppliedWarmup() int {
	if r.Config.WarmupDays >= r.Days {
		return 0
	}
	return r.Config.WarmupDays
}

// Run replays a whole sorted trace through a new System, in one
// SubmitBatch, and closes it. The trace supplies the population, the
// catalog and the future knowledge up front.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if !tr.Sorted() {
		return nil, fmt.Errorf("core: trace must be sorted")
	}
	sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
	if err != nil {
		return nil, err
	}
	if err := sys.SubmitBatch(tr.Records); err != nil {
		return nil, err
	}
	return sys.Close()
}
