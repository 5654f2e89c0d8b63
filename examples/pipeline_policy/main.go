// Pipeline policy: compose a caching strategy from built-in stages with
// the Policy API v2 — no Policy interface to implement, no internal
// packages touched. Compare examples/custom_policy, which builds the
// same kind of strategy the v1 way (a full seven-method Policy).
//
// The composition here is "lfu-2touch": windowed-frequency scoring
// (the paper's LFU) behind a bypass-on-first-touch admission filter, so
// one-hit wonders — the bulk of a VoD catalog — never displace proven
// residents. The registration is the ten lines in main.
package main

import (
	"fmt"
	"log"
	"time"

	"cablevod"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipeline_policy: ")

	// The whole strategy: score by windowed frequency, admit only on a
	// second touch, break ties by recency. Both stages are fresh per
	// neighborhood, so the engine may run shards concurrently.
	err := cablevod.RegisterPipeline(cablevod.PolicySpec{
		Name:        "lfu-2touch",
		Description: "windowed LFU behind a bypass-on-first-touch admission filter",
		Scorer: cablevod.ScorerStage{
			New: func(cfg cablevod.Config) cablevod.Scorer {
				s, _ := cablevod.NewFrequencyScorer(cfg.LFUHistory)
				return s
			},
			Traits: cablevod.StageTraits{ShardIndependent: true},
		},
		Admission: cablevod.AdmissionStage{
			New:    func(cablevod.Config) cablevod.Admission { return cablevod.NewSecondTouchAdmission() },
			Traits: cablevod.StageTraits{ShardIndependent: true},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	opts := cablevod.DefaultTraceOptions()
	opts.Users = 4_000
	opts.Programs = 800
	opts.Days = 7
	tr, err := cablevod.GenerateTrace(opts)
	if err != nil {
		log.Fatal(err)
	}

	cfg := cablevod.Config{
		NeighborhoodSize: 500,
		PerPeerStorage:   1 * cablevod.GB,
		LFUHistory:       72 * time.Hour,
		WarmupDays:       2,
	}

	// Head to head against the built-in lfu and lru over the same trace.
	for _, name := range []string{"lfu-2touch", "lfu", "lru"} {
		run := cfg
		run.StrategyName = name
		res, err := cablevod.Run(run, tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s server %6.3f Gb/s peak, savings %5.1f%%, hit ratio %5.1f%%, admissions %d\n",
			name, res.Server.Mean.Gbps(), 100*res.SavingsVsDemand,
			100*res.Counters.HitRatio(), res.Counters.Admissions)
	}
}
