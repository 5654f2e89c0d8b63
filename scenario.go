package cablevod

import (
	"fmt"
	"time"

	"cablevod/internal/scenario"
	"cablevod/internal/scenario/spec"
)

// ScenarioInfo describes one registered workload scenario.
type ScenarioInfo struct {
	// Name is the registry key, accepted by RunScenario and
	// `vodsim -scenario`.
	Name string
	// Description says what the scenario stresses.
	Description string
}

// ListScenarios enumerates every registered workload scenario, sorted
// by name. The built-ins cover a flash crowd, a catalog premiere, a
// subscriber churn wave, a weekend/evening intensity surge, and
// rotating regional popularity drift; see SCENARIOS.md for each one's
// knobs and the question it answers.
func ListScenarios() []ScenarioInfo {
	var out []ScenarioInfo
	for _, b := range scenario.Builders() {
		out = append(out, ScenarioInfo{Name: b.Name, Description: b.Description})
	}
	return out
}

// ScenarioCheckpoint is one mid-scenario measurement emitted by the
// driver: live engine Metrics at a virtual instant, labelled with the
// scenario phases active there.
type ScenarioCheckpoint = scenario.Checkpoint

// ScenarioOptions configures a RunScenario call.
type ScenarioOptions struct {
	// Workload sizes the scenario's base synthetic workload
	// (population, catalog, days, seed). The zero value uses
	// DefaultTraceOptions, the paper-calibrated PowerInfo shape;
	// anything else must be a complete configuration (start from
	// DefaultTraceOptions and override fields) — a partially filled
	// one is rejected rather than silently completed.
	Workload TraceOptions

	// Chunk is the virtual-time window of records ingested per
	// SubmitBatch (0 = one day). Results are bit-identical at every
	// chunking; smaller chunks only give fresher checkpoints.
	Chunk time.Duration

	// Checkpoint emits a ScenarioCheckpoint every this much virtual
	// time, and one at the stream's end when the span is not a whole
	// number of intervals (0 = none).
	Checkpoint time.Duration

	// OnCheckpoint observes checkpoints as they are taken; the full
	// series is also returned by RunScenario.
	OnCheckpoint func(ScenarioCheckpoint)

	// Acceleration rate-limits the virtual clock to at most this many
	// virtual seconds per wall-clock second (0 = as fast as the
	// hardware allows). 86400 plays one simulated day per real second.
	Acceleration float64

	// SnapshotAt requests one mid-run state export at the first hour
	// boundary at or after this virtual time (0 = none) — the warm
	// state fork comparisons branch from. Requires OnSnapshot.
	SnapshotAt time.Duration

	// OnSnapshot receives the mid-run export; an error aborts the run.
	OnSnapshot func(*SystemState) error

	// SnapshotFuture embeds the scenario's complete materialized record
	// stream in the snapshot, making the saved state self-contained:
	// FutureTail then yields exactly the records still to come, so
	// RunForks can replay the rest of the scenario from the snapshot
	// alone.
	SnapshotFuture bool
}

// RunScenario streams a registered scenario's lazily generated live
// workload through the online System engine: the scenario's population
// and catalog provision the plant, records are generated hour by hour
// (never pre-materialized), ingested through SubmitBatch in chunks, and
// periodic Snapshot-based checkpoints let strategies be compared
// mid-scenario — during the flash crowd, not just after it.
//
// cfg configures the engine exactly as for New; its Subscribers,
// Catalog, and Future fields are ignored (the scenario supplies the
// population and catalog, and a live scenario has no future, so offline
// strategies like Oracle are rejected). Results are deterministic for a
// given scenario, workload, and engine configuration, bit-identical at
// every Config.Parallelism.
func RunScenario(name string, cfg Config, opts ScenarioOptions) (*Result, []ScenarioCheckpoint, error) {
	b, err := scenario.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	base := opts.Workload
	if zeroWorkload(base) {
		base = DefaultTraceOptions()
	}
	if cfg.Subscribers != nil || cfg.Catalog != nil || cfg.Future != nil {
		return nil, nil, fmt.Errorf("cablevod: RunScenario derives Subscribers/Catalog from the scenario; leave them unset")
	}
	d, err := scenario.NewDriver(cfg.internal(), b.Build(base), scenario.Options{
		Chunk:          opts.Chunk,
		Checkpoint:     opts.Checkpoint,
		OnCheckpoint:   observe(opts.OnCheckpoint),
		Acceleration:   opts.Acceleration,
		SnapshotAt:     opts.SnapshotAt,
		OnSnapshot:     opts.OnSnapshot,
		SnapshotFuture: opts.SnapshotFuture,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := d.Run()
	if err != nil {
		return nil, nil, err
	}
	return res, d.Checkpoints(), nil
}

// SpecReport is the outcome of a declarative scenario-spec run: the
// engine result, the checkpoint series with its execution trace, and
// one verdict per assertion. Render writes the human-readable pass/fail
// report; Pass and FirstFailure summarize it programmatically.
type SpecReport = spec.Report

// SpecRunOptions configures a RunSpecFile call. The spec file itself
// pins the workload, the phase timeline, and (usually) the engine and
// checkpoint cadence; these options fill what the spec leaves open.
type SpecRunOptions struct {
	// Checkpoint is the fallback cadence when the spec sets none. A
	// spec with assertions must resolve to a positive cadence — running
	// its temporal predicates over zero checkpoints is an error, never
	// a silent pass.
	Checkpoint time.Duration

	// Chunk is the fallback SubmitBatch ingest window (0 = one day).
	Chunk time.Duration

	// OnCheckpoint observes checkpoints as they are taken.
	OnCheckpoint func(ScenarioCheckpoint)

	// Acceleration rate-limits the virtual clock, exactly as in
	// ScenarioOptions.
	Acceleration float64

	// SnapshotAt, OnSnapshot and SnapshotFuture request a mid-run state
	// export, exactly as in ScenarioOptions.
	SnapshotAt     time.Duration
	OnSnapshot     func(*SystemState) error
	SnapshotFuture bool
}

// RunSpecFile loads a declarative scenario spec (YAML or JSON; see
// SCENARIOS.md for the schema), runs it through the live engine, and
// evaluates its assert block against the checkpoint series. The spec's
// engine block overrides cfg field by field, so a checked-in spec pins
// the knobs its assertions depend on while the caller keeps the rest
// (Parallelism above all — results are bit-identical at every width).
//
// The returned report is complete even when assertions fail; check
// report.Pass(). The error is non-nil only when the run itself cannot
// proceed (unreadable spec, validation failure, engine error, or a spec
// with assertions but no checkpoint cadence).
func RunSpecFile(path string, cfg Config, opts SpecRunOptions) (*SpecReport, error) {
	if cfg.Subscribers != nil || cfg.Catalog != nil || cfg.Future != nil {
		return nil, fmt.Errorf("cablevod: RunSpecFile derives Subscribers/Catalog from the spec; leave them unset")
	}
	return spec.RunFile(path, spec.RunOptions{
		Engine:         cfg.internal(),
		Checkpoint:     opts.Checkpoint,
		Chunk:          opts.Chunk,
		OnCheckpoint:   observe(opts.OnCheckpoint),
		Acceleration:   opts.Acceleration,
		SnapshotAt:     opts.SnapshotAt,
		OnSnapshot:     opts.OnSnapshot,
		SnapshotFuture: opts.SnapshotFuture,
	})
}

// observe adapts a checkpoint observer to the Driver's hook; a facade
// run never pauses.
func observe(f func(ScenarioCheckpoint)) func(ScenarioCheckpoint) error {
	if f == nil {
		return nil
	}
	return func(cp ScenarioCheckpoint) error { f(cp); return nil }
}

// zeroWorkload reports whether a TraceOptions is the zero value, so
// RunScenario substitutes the defaults only for a wholly unset
// workload — never for a partially filled one (whose missing fields the
// spec validation then rejects explicitly).
func zeroWorkload(o TraceOptions) bool {
	return o.Users == 0 && o.Programs == 0 && o.Days == 0 && o.Seed == 0 &&
		o.SessionsPerUserDay == 0 && o.LengthsMinutes == nil && o.LengthWeights == nil &&
		o.HourWeights == [24]float64{} && o.RebuildInterval == 0
}
