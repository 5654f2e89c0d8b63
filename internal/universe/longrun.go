package universe

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/scenario"
	"cablevod/internal/trace"
)

// LongRunOptions controls a checkpointed run.
type LongRunOptions struct {
	// Dir is the checkpoint directory (required). A long run leaves two
	// files there: state.snap (the engine snapshot) and longrun.json
	// (the run ledger: tier, progress, digest). Re-invoking LongRun on
	// a directory with a ledger resumes the run from its last leg.
	Dir string

	// Leg is the simulated time per leg — the checkpoint cadence.
	// Default 24h; must be a positive multiple of an hour.
	Leg time.Duration

	// MaxLegs stops this invocation after completing that many legs,
	// leaving the run resumable. Zero runs to completion.
	MaxLegs int

	// OnLeg observes each completed leg.
	OnLeg func(LegInfo)
}

// LegInfo describes one completed leg.
type LegInfo struct {
	// Leg is the 1-based leg index across the whole run, counting legs
	// from earlier invocations.
	Leg int
	// At is the virtual time of the checkpoint.
	At time.Duration
	// Submitted is the cumulative record count at the checkpoint.
	Submitted int
	// Digest is the canonical state digest at the checkpoint.
	Digest string
}

// LongRunResult reports an invocation's outcome.
type LongRunResult struct {
	Tier      Config
	Resumed   bool
	Done      bool
	LegsRun   int // legs completed by this invocation
	LegsTotal int // legs completed across all invocations
	At        time.Duration
	Submitted int
	// Digest is the canonical digest of the last checkpointed state —
	// the final state when Done. Equivalent runs (any parallelism, any
	// leg split) produce the same digest.
	Digest    string
	StatePath string
	// Result is the closed engine's full metrics, set only when Done.
	Result *core.Result
}

// runMeta is the longrun.json ledger. The tier config is embedded
// whole so a resume can verify the checkpoint and the request describe
// the same universe — the engine snapshot alone cannot carry this
// (the workload seed, for one, is not recoverable from it).
type runMeta struct {
	Tier      Config        `json:"tier"`
	Strategy  string        `json:"strategy"`
	Leg       time.Duration `json:"leg_ns"`
	HoursDone int           `json:"hours_done"`
	Legs      int           `json:"legs"`
	Submitted int           `json:"submitted"`
	At        time.Duration `json:"at_ns"`
	Digest    string        `json:"digest"`
}

const (
	stateFileName = "state.snap"
	metaFileName  = "longrun.json"
)

// LongRun executes (or resumes) a universe run split into resumable
// legs. It is a scenario.Driver over the tier's spec, one SubmitBatch
// per generated hour, plus the run ledger: at every leg end, and at the
// stream's end, it checkpoints atomically, so the run survives
// interruption at any point with at most one leg of lost work. base
// supplies engine policy (strategy, fill, warmup, parallelism); the
// tier dictates plant and workload. The run is bit-identical to an
// uninterrupted one at any parallelism and any leg split — StateDigest
// pins this.
func LongRun(tier Config, base core.Config, opts LongRunOptions) (*LongRunResult, error) {
	if err := tier.Validate(); err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("universe: LongRun needs a checkpoint directory")
	}
	leg := opts.Leg
	if leg == 0 {
		leg = 24 * time.Hour
	}
	if leg <= 0 || leg%time.Hour != 0 {
		return nil, fmt.Errorf("universe: leg %v must be a positive multiple of an hour", leg)
	}
	if opts.MaxLegs < 0 {
		return nil, fmt.Errorf("universe: MaxLegs must be non-negative (got %d)", opts.MaxLegs)
	}
	// Resolve the default strategy up front so the ledger records the
	// real name and a resume that names it explicitly still matches.
	if base.Strategy == 0 && base.StrategyName == "" {
		base.Strategy = core.StrategyLFU
	}
	cfg := tier.EngineConfig(base)
	spec := tier.Spec()
	statePath := filepath.Join(opts.Dir, stateFileName)
	metaPath := filepath.Join(opts.Dir, metaFileName)

	meta, resumed, err := loadMeta(metaPath)
	if err != nil {
		return nil, err
	}
	res := &LongRunResult{Tier: tier, Resumed: resumed, StatePath: statePath, LegsTotal: meta.Legs, Digest: meta.Digest, At: meta.At, Submitted: meta.Submitted}

	// A leg checkpoint exports, encodes, digests and drops one shard at
	// a time, so it never holds a copy of the whole engine or the
	// state's JSON text.
	var d *scenario.Driver
	dopts := scenario.Options{Chunk: time.Hour, Checkpoint: leg}
	dopts.OnCheckpoint = func(cp scenario.Checkpoint) error {
		dg := newDigester(sha256.New())
		if err := d.System().Checkpoint(statePath, dg); err != nil {
			return err
		}
		meta.HoursDone = int(cp.At / time.Hour)
		meta.Legs++
		meta.Submitted = cp.Metrics.Submitted
		meta.At = cp.At
		meta.Digest = dg.sum(false)
		if err := saveMeta(metaPath, meta); err != nil {
			return err
		}
		res.LegsRun++
		res.LegsTotal, res.At, res.Submitted, res.Digest = meta.Legs, meta.At, meta.Submitted, meta.Digest
		if opts.OnLeg != nil {
			opts.OnLeg(LegInfo{Leg: meta.Legs, At: meta.At, Submitted: meta.Submitted, Digest: meta.Digest})
		}
		if opts.MaxLegs > 0 && res.LegsRun >= opts.MaxLegs && cp.At < spec.Span() {
			return scenario.Pause // resumable: state and ledger are on disk
		}
		return nil
	}

	if resumed {
		if err := verifyMeta(meta, tier, cfg, leg); err != nil {
			return nil, err
		}
		st, err := core.LoadStateFile(statePath)
		if err != nil {
			return nil, fmt.Errorf("universe: ledger %s exists but its snapshot is unreadable: %w", metaPath, err)
		}
		if err := verifySnapshot(st, tier, meta); err != nil {
			return nil, err
		}
		// The stream is deterministic, so skipping the checkpointed
		// hours replays the exact record sequence the snapshot
		// consumed; the Driver's count check catches a divergent
		// workload (wrong seed, edited ledger) that the ledger
		// comparison could not.
		d, err = scenario.ResumeDriver(st, core.RestoreOptions{Parallelism: cfg.Parallelism}, spec, meta.HoursDone, dopts)
		if err != nil {
			return nil, fmt.Errorf("universe: checkpoint %s: %w", statePath, err)
		}
	} else {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("universe: creating checkpoint directory: %w", err)
		}
		meta = runMeta{Tier: tier, Strategy: cfg.StrategyLabel(), Leg: leg}
		if d, err = scenario.NewDriver(cfg, spec, dopts); err != nil {
			return nil, err
		}
	}

	final, err := d.Run()
	if err != nil {
		return nil, err
	}
	res.Done, res.Result = final != nil, final
	return res, nil
}

// loadMeta reads the run ledger; absent means a fresh run.
func loadMeta(path string) (runMeta, bool, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return runMeta{}, false, nil
	}
	if err != nil {
		return runMeta{}, false, fmt.Errorf("universe: reading run ledger: %w", err)
	}
	var m runMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return runMeta{}, false, fmt.Errorf("universe: run ledger %s is corrupt: %w", path, err)
	}
	return m, true, nil
}

// saveMeta writes the ledger atomically, as the state file is written.
func saveMeta(path string, m runMeta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return core.SaveFile(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// verifyMeta rejects a resume whose request does not describe the
// universe the checkpoint was created from, with an error that says
// which knob differs.
func verifyMeta(m runMeta, tier Config, cfg core.Config, leg time.Duration) error {
	if m.Tier != tier {
		return fmt.Errorf("universe: checkpoint was created by tier %s; requested %s — resume with the original tier or point the run at a fresh directory",
			describeTier(m.Tier), describeTier(tier))
	}
	if m.Strategy != cfg.StrategyLabel() {
		return fmt.Errorf("universe: checkpoint was created with strategy %q; requested %q — a long run cannot change strategy mid-flight (fork the snapshot instead)",
			m.Strategy, cfg.StrategyLabel())
	}
	if m.Leg != leg {
		return fmt.Errorf("universe: checkpoint uses %v legs; requested %v — leg length must stay fixed so leg boundaries align", m.Leg, leg)
	}
	return nil
}

// describeTier renders a tier's identity for mismatch errors.
func describeTier(c Config) string {
	return fmt.Sprintf("%q (%d subscribers / %d neighborhoods / %d programs / %d days, seed %d)",
		c.Name, c.Subscribers, c.Neighborhoods, c.Catalog, c.Days, c.Seed)
}

// verifySnapshot cross-checks the engine snapshot against the tier:
// the ledger names the universe, the snapshot must actually hold its
// plant. Universe populations are dense, user i at position i, which
// also rules out a repeated user.
func verifySnapshot(st *core.SystemState, tier Config, m runMeta) error {
	if got := len(st.Users); got != tier.Subscribers {
		return fmt.Errorf("universe: snapshot holds %d subscribers, tier %q builds %d", got, tier.Name, tier.Subscribers)
	}
	if got, want := st.Config.Topology.NeighborhoodSize, tier.NeighborhoodSize(); got != want {
		return fmt.Errorf("universe: snapshot plant has %d-subscriber neighborhoods, tier %q builds %d", got, tier.Name, want)
	}
	for i, u := range st.Users {
		if u != trace.UserID(i) {
			return fmt.Errorf("universe: snapshot population is not a universe population: position %d holds user %d", i, u)
		}
	}
	if st.Submitted != m.Submitted {
		return fmt.Errorf("universe: snapshot has %d submitted records, ledger says %d — the two files are from different runs", st.Submitted, m.Submitted)
	}
	return nil
}
