package main

import (
	"fmt"
	"os"
	"time"

	"cablevod"
	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/scenario"
	"cablevod/internal/universe"
)

// coreConfig maps the CLI's facade configuration onto the engine's,
// the same projection the cablevod package applies internally. The
// universe runners drive internal/core directly because the facade's
// batch entry points materialize traces, which is exactly what a
// mega-scale run must never do.
func coreConfig(cfg cablevod.Config) core.Config {
	return core.Config{
		Topology: hfc.Config{
			NeighborhoodSize:  cfg.NeighborhoodSize,
			PerPeerStorage:    cfg.PerPeerStorage,
			MaxStreamsPerPeer: cfg.MaxStreamsPerPeer,
			CoaxCapacity:      cfg.CoaxCapacity,
		},
		Strategy:        cfg.Strategy,
		StrategyName:    cfg.StrategyName,
		LFUHistory:      cfg.LFUHistory,
		OracleLookahead: cfg.OracleLookahead,
		GlobalLag:       cfg.GlobalLag,
		Fill:            cfg.Fill,
		Replicas:        cfg.Replicas,
		PrefixSegments:  cfg.PrefixSegments,
		WarmupDays:      cfg.WarmupDays,
		Parallelism:     cfg.Parallelism,
	}
}

// runScale streams a universe tier's whole workload through the engine
// in one uninterrupted pass, printing per-day progress to stderr. The
// workload is generated hour by hour and never materialized.
func runScale(tier universe.Config, cfg cablevod.Config) (*cablevod.Result, error) {
	base := tier.EngineConfig(coreConfig(cfg))
	spec := tier.Spec()
	stream, population, err := scenario.NewStream(spec, base.Topology)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(base, core.Workload{Users: population, Lengths: stream.Lengths()})
	if err != nil {
		return nil, err
	}
	for _, ph := range spec.Phases {
		for i, f := range ph.Faults {
			if err := sys.Disrupt(f); err != nil {
				return nil, fmt.Errorf("universe %s: phase %q fault %d (%s): %w", tier.Name, ph.Name, i, f.Kind(), err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "vodsim: universe %s — %d subscribers, %d neighborhoods (%d shards on a %d-worker pool), ~%d records over %d days\n",
		tier.Name, tier.Subscribers, tier.Neighborhoods, sys.Shards(), sys.Parallelism(), tier.Records(), tier.Days)

	start := time.Now()
	submitted, hours := 0, 0
	for !stream.Done() {
		recs, _, err := stream.NextHour()
		if err != nil {
			return nil, err
		}
		hours++
		if len(recs) > 0 {
			if err := sys.SubmitBatch(recs); err != nil {
				return nil, err
			}
			submitted += len(recs)
		}
		if hours%24 == 0 {
			elapsed := time.Since(start).Seconds()
			fmt.Fprintf(os.Stderr, "vodsim: day %d/%d — %d records (%.0f rec/s)\n",
				hours/24, tier.Days, submitted, float64(submitted)/elapsed)
		}
	}
	liveHeap := universe.MeasureFootprint().HeapLiveBytes
	res, err := sys.Close()
	if err != nil {
		return nil, err
	}
	printFootprint(liveHeap)
	return res, nil
}

// runScaleLongRun drives universe.LongRun: the tier's run split into
// checkpointed legs in dir, resumable by re-running the same command.
// The final line prints the canonical state digest, the value the CI
// equivalence smoke compares across resumed and uninterrupted runs.
func runScaleLongRun(tier universe.Config, cfg cablevod.Config, dir string, legHours, maxLegs int) error {
	if dir == "" {
		dir = ".longrun-" + tier.Name
	}
	start := time.Now()
	var liveHeap uint64
	res, err := universe.LongRun(tier, coreConfig(cfg), universe.LongRunOptions{
		Dir:     dir,
		Leg:     time.Duration(legHours) * time.Hour,
		MaxLegs: maxLegs,
		OnLeg: func(leg universe.LegInfo) {
			// LongRun calls OnLeg with the engine still open, so this is
			// the plant's live heap; after LongRun returns, it is gone.
			liveHeap = universe.MeasureFootprint().HeapLiveBytes
			fmt.Fprintf(os.Stderr, "vodsim: leg %d checkpointed at t=%vh — %d records, %s, live heap %.1f MB\n",
				leg.Leg, leg.At.Hours(), leg.Submitted, leg.Digest, float64(liveHeap)/1e6)
		},
	})
	if err != nil {
		return err
	}
	if res.LegsRun > 0 {
		printFootprint(liveHeap)
	}
	if !res.Done {
		fmt.Printf("longrun paused after %d leg(s) (%d total, t=%vh, %d records)\n",
			res.LegsRun, res.LegsTotal, res.At.Hours(), res.Submitted)
		fmt.Printf("resume with the same command; state in %s\n", dir)
		fmt.Printf("longrun digest: %s\n", res.Digest)
		return nil
	}
	printResult(res.Result, time.Since(start))
	fmt.Printf("longrun legs        %d\n", res.LegsTotal)
	fmt.Printf("longrun digest      %s\n", res.Digest)
	return nil
}

// printFootprint reports a scale run's memory, the numbers the mega
// tier's laptop-class claim is judged by: the live heap read with the
// engine still open (after the last batch, or at the last checkpoint
// of a long run) and the process's peak RSS.
func printFootprint(liveHeap uint64) {
	fmt.Fprintf(os.Stderr, "vodsim: live heap %.1f MB, peak RSS %.0f MB\n",
		float64(liveHeap)/1e6, float64(universe.PeakRSS())/1e6)
}
