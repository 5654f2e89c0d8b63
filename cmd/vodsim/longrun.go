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
// in one uninterrupted pass, one SubmitBatch per generated hour,
// printing per-day progress to stderr. The workload is generated hour
// by hour and never materialized.
func runScale(tier universe.Config, cfg cablevod.Config) (*cablevod.Result, error) {
	var start time.Time
	var liveHeap uint64
	d, err := scenario.NewDriver(tier.EngineConfig(coreConfig(cfg)), tier.Spec(), scenario.Options{
		Chunk:      time.Hour,
		Checkpoint: 24 * time.Hour,
		OnCheckpoint: func(cp scenario.Checkpoint) error {
			day, n := int(cp.At/(24*time.Hour)), cp.Metrics.Submitted
			fmt.Fprintf(os.Stderr, "vodsim: day %d/%d — %d records (%.0f rec/s)\n",
				day, tier.Days, n, float64(n)/time.Since(start).Seconds())
			if day == tier.Days {
				// The engine is still open: this is the plant's live heap.
				liveHeap = universe.MeasureFootprint().HeapLiveBytes
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	sys := d.System()
	fmt.Fprintf(os.Stderr, "vodsim: universe %s — %d subscribers, %d neighborhoods (%d shards on a %d-worker pool), ~%d records over %d days\n",
		tier.Name, tier.Subscribers, tier.Neighborhoods, sys.Shards(), sys.Parallelism(), tier.Records(), tier.Days)
	start = time.Now()
	res, err := d.Run()
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
