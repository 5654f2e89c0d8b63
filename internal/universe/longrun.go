package universe

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/scenario"
	"cablevod/internal/trace"
)

// LongRunOptions controls a checkpointed run.
type LongRunOptions struct {
	// Dir is the checkpoint directory (required). A long run keeps one
	// file there, state.snap: the engine snapshot, with the run ledger
	// in its header. Re-invoking LongRun on a directory that holds it
	// resumes the run from its last leg.
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

// ledger is what a checkpoint holds besides the engine state, in its
// header's run field: the tier config, which the state cannot carry
// (the workload seed, for one), and the creating engine config with
// Parallelism, the one setting a resume may change, cleared. The
// state's own Config holds resolved defaults, so a resume compares its
// request with this copy, not with that.
type ledger struct {
	Tier      Config        `json:"tier"`
	Engine    core.Config   `json:"engine"`
	Leg       time.Duration `json:"leg_ns"`
	HoursDone int           `json:"hours_done"`
}

const stateFileName = "state.snap"

// LongRun executes (or resumes) a universe run split into resumable
// legs. It is a scenario.Driver over the tier's spec, one SubmitBatch
// per generated hour, plus the run ledger: at every leg end, and at the
// stream's end, it checkpoints to one file with one rename, so the run
// survives interruption at any point with at most one leg of lost work.
// base supplies engine policy (strategy, fill, warmup, parallelism);
// the tier dictates plant and workload. A resume must ask for the tier,
// leg length and engine config the run was created with; only the
// parallelism may change. The run is bit-identical to an uninterrupted
// one at any parallelism and any leg split — StateDigest pins this.
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
	// real one and a resume that names it explicitly still matches.
	if base.Strategy == 0 && base.StrategyName == "" {
		base.Strategy = core.StrategyLFU
	}
	cfg := tier.EngineConfig(base)
	spec := tier.Spec()
	statePath := filepath.Join(opts.Dir, stateFileName)
	run := ledger{Tier: tier, Engine: cfg, Leg: leg}
	run.Engine.Parallelism = 0
	legs := func(hours int) int { return int((time.Duration(hours)*time.Hour + leg - 1) / leg) }
	res := &LongRunResult{Tier: tier, StatePath: statePath}

	// A leg checkpoint exports, encodes, digests and drops one shard at
	// a time, so it never holds a copy of the whole engine or the
	// state's JSON text.
	var d *scenario.Driver
	dopts := scenario.Options{Chunk: time.Hour, Checkpoint: leg}
	dopts.OnCheckpoint = func(cp scenario.Checkpoint) error {
		run.HoursDone = int(cp.At / time.Hour)
		header, _ := json.Marshal(run) // integers, strings and bools only: cannot fail
		dg := newDigester(sha256.New())
		if err := d.System().Checkpoint(statePath, header, dg); err != nil {
			return err
		}
		res.LegsRun++
		res.LegsTotal, res.At, res.Submitted, res.Digest = legs(run.HoursDone), cp.At, cp.Metrics.Submitted, dg.sum(false)
		if opts.OnLeg != nil {
			opts.OnLeg(LegInfo{Leg: res.LegsTotal, At: res.At, Submitted: res.Submitted, Digest: res.Digest})
		}
		if opts.MaxLegs > 0 && res.LegsRun >= opts.MaxLegs && cp.At < spec.Span() {
			return scenario.Pause // resumable: the checkpoint is on disk
		}
		return nil
	}

	st, header, err := core.LoadCheckpoint(statePath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("universe: creating checkpoint directory: %w", err)
		}
		if d, err = scenario.NewDriver(cfg, spec, dopts); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("universe: %w", err)
	default:
		// A resume keeps everything in the ledger but the hours done.
		var done ledger
		if err := json.Unmarshal(header, &done); err != nil {
			return nil, fmt.Errorf("universe: %s holds no readable run ledger: %w", statePath, err)
		}
		run.HoursDone = done.HoursDone
		if diff := settingDiff("", reflect.ValueOf(done), reflect.ValueOf(run)); diff != "" {
			return nil, fmt.Errorf("universe: checkpoint was created with %s — a resume keeps its run's tier, leg length and engine settings and may change only the parallelism (start a fresh directory, or fork the snapshot)", diff)
		}
		if err := verifySnapshot(st, tier); err != nil {
			return nil, err
		}
		res.Resumed, res.LegsTotal, res.At, res.Submitted = true, legs(run.HoursDone), time.Duration(run.HoursDone)*time.Hour, st.Submitted
		if res.At >= spec.Span() {
			// A finished run checkpoints no more: report its last state.
			if res.Digest, err = StateDigest(st); err != nil {
				return nil, err
			}
		}
		// The stream is deterministic, so skipping the checkpointed
		// hours replays the exact record sequence the snapshot
		// consumed; the Driver's count check catches a divergent
		// workload (an edited ledger) that the ledger comparison could
		// not.
		d, err = scenario.ResumeDriver(st, core.RestoreOptions{Parallelism: cfg.Parallelism}, spec, run.HoursDone, dopts)
		if err != nil {
			return nil, fmt.Errorf("universe: checkpoint %s: %w", statePath, err)
		}
	}

	final, err := d.Run()
	if err != nil {
		return nil, err
	}
	res.Done, res.Result = final != nil, final
	return res, nil
}

// settingDiff names the first field where got and want differ, with
// both values, or returns "".
func settingDiff(path string, got, want reflect.Value) string {
	if got.Kind() != reflect.Struct {
		if got.Equal(want) {
			return ""
		}
		return fmt.Sprintf("%s %v; requested %v", path, got, want)
	}
	for i := range got.NumField() {
		if d := settingDiff(strings.TrimPrefix(path+"."+got.Type().Field(i).Name, "."), got.Field(i), want.Field(i)); d != "" {
			return d
		}
	}
	return ""
}

// verifySnapshot cross-checks the engine snapshot against the tier:
// the ledger names the universe, the snapshot must actually hold its
// plant. Universe populations are dense, user i at position i, which
// also rules out a repeated user.
func verifySnapshot(st *core.SystemState, tier Config) error {
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
	return nil
}
