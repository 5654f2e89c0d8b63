package spec

import (
	"fmt"
	"runtime"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/scenario"
	"cablevod/internal/units"
)

// defaultNeighborhood is the paper's subscribers-per-headend scale,
// applied when neither the caller nor the spec pins one (the same
// default the vodsim CLI uses).
const defaultNeighborhood = 1000

// RunOptions configures one Harness run. The spec's own engine block
// overrides Engine; Parallelism then overrides both, so equivalence
// tests can sweep worker-pool widths over one spec.
type RunOptions struct {
	// Engine is the caller's serving-engine configuration; the spec's
	// engine block overlays it.
	Engine core.Config

	// Parallelism, when positive, pins the engine worker-pool width
	// regardless of Engine.Parallelism.
	Parallelism int

	// Checkpoint is the fallback cadence when the spec sets none.
	Checkpoint time.Duration

	// Chunk is the fallback SubmitBatch window when the spec sets none
	// (0 = the Driver's one-day default).
	Chunk time.Duration

	// Acceleration rate-limits the virtual clock (0 = unthrottled), for
	// live demos.
	Acceleration float64

	// OnCheckpoint receives each checkpoint as it is taken (see
	// scenario.Options.OnCheckpoint).
	OnCheckpoint func(scenario.Checkpoint) error

	// Stop requests a graceful early finish of the drive loop (see
	// scenario.Options.Stop). Assertions still evaluate over whatever
	// checkpoints were taken.
	Stop <-chan struct{}

	// SnapshotAt, when positive, exports the full engine state at the
	// first hour boundary at or past this offset and hands it to
	// OnSnapshot (see scenario.Options.SnapshotAt). The run then
	// continues to the end.
	SnapshotAt time.Duration

	// OnSnapshot receives the mid-run state export. Required when
	// SnapshotAt is set; an error aborts the run.
	OnSnapshot func(*core.SystemState) error

	// SnapshotFuture embeds the spec's complete materialized record
	// stream in the snapshot, making the saved state self-contained for
	// fork replay (see scenario.Options.SnapshotFuture).
	SnapshotFuture bool
}

// Prepared is a spec resolved and validated into a live, not-yet-run
// Driver: the daemon-mode hook. Callers that need to own the drive
// loop — attach a telemetry collector, chain checkpoint observers,
// stop on a signal — call Prepare, run p.Driver themselves, and hand
// the Result to p.Report for assertion evaluation.
type Prepared struct {
	// File is the spec that will run.
	File *File

	// Driver is the live scenario driver, ready for Run.
	Driver *scenario.Driver

	cadence      time.Duration
	coaxCapacity units.BitRate
	parallelism  int
}

// Prepare resolves the engine configuration, validates the spec
// against it, and builds the live Driver without running it. Prepare
// never defers a failure to run time: a spec that declares predicates
// but resolves to no checkpoint cadence is rejected here, because
// temporal predicates over an empty series would pass vacuously.
func Prepare(f *File, opts RunOptions) (*Prepared, error) {
	cfg, err := f.EngineConfig(opts.Engine)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism > 0 {
		cfg.Parallelism = opts.Parallelism
	}
	if cfg.Topology.NeighborhoodSize == 0 {
		cfg.Topology.NeighborhoodSize = defaultNeighborhood
	}
	if err := f.Validate(cfg.Topology.NeighborhoodSize); err != nil {
		return nil, err
	}

	cadence := f.Checkpoint
	if cadence == 0 {
		cadence = opts.Checkpoint
	}
	if cadence <= 0 && len(f.Assert) > 0 {
		return nil, fmt.Errorf("spec %s: %d assertions but no checkpoint cadence — set checkpoint: in the spec or supply a fallback (vodsim -checkpoint, RunOptions.Checkpoint); temporal predicates over zero checkpoints would pass vacuously",
			f.Name, len(f.Assert))
	}
	chunk := f.Chunk
	if chunk == 0 {
		chunk = opts.Chunk
	}

	driver, err := scenario.NewDriver(cfg, f.ScenarioSpec(), scenario.Options{
		Chunk:          chunk,
		Checkpoint:     cadence,
		OnCheckpoint:   opts.OnCheckpoint,
		Acceleration:   opts.Acceleration,
		Stop:           opts.Stop,
		SnapshotAt:     opts.SnapshotAt,
		OnSnapshot:     opts.OnSnapshot,
		SnapshotFuture: opts.SnapshotFuture,
	})
	if err != nil {
		return nil, err
	}

	coax := cfg.Topology.CoaxCapacity
	if coax == 0 {
		coax = hfc.DefaultCoaxCapacity
	}
	parallelism := cfg.Parallelism
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Prepared{
		File:         f,
		Driver:       driver,
		cadence:      cadence,
		coaxCapacity: coax,
		parallelism:  parallelism,
	}, nil
}

// Report evaluates the spec's assert block against the checkpoints the
// Driver collected and assembles the full Report around the engine
// Result the caller got from Driver.Run.
func (p *Prepared) Report(res *core.Result) *Report {
	cps := p.Driver.Checkpoints()
	preds, trace := Evaluate(p.File, cps, p.coaxCapacity)
	return &Report{
		File:        p.File,
		Parallelism: p.parallelism,
		Checkpoint:  p.cadence,
		Result:      res,
		Checkpoints: cps,
		Trace:       trace,
		Predicates:  preds,
	}
}

// Run executes a spec end to end: Prepare, drive the scenario through
// the live System, and evaluate the assert block against the
// checkpoint series. Run never silently skips assertions (see
// Prepare).
func Run(f *File, opts RunOptions) (*Report, error) {
	p, err := Prepare(f, opts)
	if err != nil {
		return nil, err
	}
	res, err := p.Driver.Run()
	if err != nil {
		return nil, err
	}
	return p.Report(res), nil
}

// RunFile loads a spec file and runs it, stamping the source path into
// the report.
func RunFile(path string, opts RunOptions) (*Report, error) {
	f, err := Load(path)
	if err != nil {
		return nil, err
	}
	r, err := Run(f, opts)
	if err != nil {
		return nil, err
	}
	r.Source = path
	return r, nil
}
