package scenario

import (
	"errors"
	"fmt"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
)

// DefaultChunk is the virtual-time window one SubmitBatch covers when
// Options.Chunk is unset.
const DefaultChunk = 24 * time.Hour

// Options configures a Driver run.
type Options struct {
	// Chunk is the virtual-time window of records submitted per
	// SubmitBatch call (0 = one day; rounded up to whole hours, the
	// stream's generation granularity). Smaller chunks give fresher
	// snapshots; larger chunks give the engine's worker pool bigger
	// batches. Results are bit-identical at every chunking.
	Chunk time.Duration

	// Checkpoint emits a Snapshot-based checkpoint every this much
	// virtual time, and one at the stream's end when the span is not a
	// whole number of intervals (0 = no checkpoints). Checkpoints force
	// the pending chunk out first, so each one reflects exactly the
	// records up to its instant.
	Checkpoint time.Duration

	// OnCheckpoint, when set, receives each checkpoint as it is taken,
	// with the engine quiescent at the checkpoint's instant; the full
	// series is also collected on the Driver. Returning Pause stops Run
	// right there without closing the engine; any other error aborts
	// the run.
	OnCheckpoint func(Checkpoint) error

	// Acceleration rate-limits the virtual clock to at most this many
	// virtual seconds per wall-clock second (0 = unthrottled). An
	// acceleration of 86400 plays one simulated day per real second.
	Acceleration float64

	// Stop, when non-nil, requests a graceful early finish: once the
	// channel is closed, Run stops streaming at the next hour boundary
	// (interrupting any throttle sleep), flushes the pending chunk, and
	// finalizes the engine normally — the Result covers the records
	// streamed so far. The daemon's SIGTERM path.
	Stop <-chan struct{}

	// SnapshotAt requests one mid-run state export at the first hour
	// boundary at or after this virtual time (0 = none). The pending
	// chunk is flushed first, so the snapshot reflects exactly the
	// records up to its instant — the warm state fork runs branch from.
	SnapshotAt time.Duration

	// OnSnapshot receives the export. A returned error aborts the run
	// (a snapshot the caller could not keep should not be silently
	// dropped). Required when SnapshotAt is set.
	OnSnapshot func(*core.SystemState) error

	// SnapshotFuture additionally embeds the scenario's complete
	// materialized record stream in the snapshot's Future field, making
	// the saved state self-contained: Future[Submitted:] is exactly the
	// records still to come, so a fork run can replay the rest of the
	// scenario from the file alone. Costs one extra generation pass of
	// the whole stream at snapshot time.
	SnapshotFuture bool

	// now and sleep are test seams; nil uses the real clock.
	now   func() time.Time
	sleep func(time.Duration)
}

// validate checks the options, mirroring core.Config validation style.
func (o Options) validate() error {
	switch {
	case o.Chunk < 0:
		return fmt.Errorf("scenario: negative chunk %v", o.Chunk)
	case o.Checkpoint < 0:
		return fmt.Errorf("scenario: negative checkpoint interval %v", o.Checkpoint)
	case o.Acceleration < 0:
		return fmt.Errorf("scenario: negative acceleration %v (0 = unthrottled)", o.Acceleration)
	case o.SnapshotAt < 0:
		return fmt.Errorf("scenario: negative snapshot time %v", o.SnapshotAt)
	case o.SnapshotAt > 0 && o.OnSnapshot == nil:
		return fmt.Errorf("scenario: snapshot at %v requested without an OnSnapshot receiver", o.SnapshotAt)
	}
	return nil
}

// withDefaults fills the unset chunk and clock, rounding the chunk up
// to whole hours, the stream's generation granularity.
func (o Options) withDefaults() Options {
	if o.Chunk == 0 {
		o.Chunk = DefaultChunk
	}
	if rem := o.Chunk % time.Hour; rem != 0 {
		o.Chunk += time.Hour - rem
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.sleep == nil {
		o.sleep = stoppableSleep(o.Stop)
	}
	return o
}

// Checkpoint is one mid-scenario measurement: the live engine
// aggregates at a virtual instant, labelled with the phases active
// there — the hook that lets strategies be compared during a flash
// crowd or premiere, not just at Close.
type Checkpoint struct {
	// At is the virtual time the checkpoint was taken.
	At time.Duration

	// Phases is the comma-joined names of the spec phases covering the
	// hour the checkpoint closes ("" between phases).
	Phases string

	// Metrics is the engine snapshot: cumulative counters, transfer
	// totals, rates, cache occupancy, and the per-neighborhood
	// breakdown as of At.
	Metrics core.Metrics
}

// Pause, returned by an OnCheckpoint hook, stops Driver.Run after that
// checkpoint with the engine left open: Run returns a nil Result and a
// nil error, and the System holds exactly the records up to the
// checkpoint, ready to be saved and resumed with ResumeDriver.
var Pause = errors.New("scenario: pause")

// Driver streams a scenario's lazily generated records into a live
// core.System in chunk-sized SubmitBatch windows under a virtual clock,
// optionally rate-limited to a wall-clock acceleration factor and
// emitting periodic checkpoints. The engine is built for the
// scenario's full population and catalog; results are bit-identical at
// every Config.Parallelism and every chunking. Run is the one loop that
// feeds a scenario's stream hours to the engine: scenario runs, the
// daemon, universe.LongRun's checkpointed legs and vodsim -scale all
// run on it.
type Driver struct {
	spec   Spec
	opts   Options
	topo   hfc.Config
	sys    *core.System
	stream *synth.Stream
	from   time.Duration // the virtual time the stream resumes at

	checkpoints []Checkpoint
	ran         bool
	stopped     bool
}

// NewStream compiles the spec against the plant topology and returns
// its lazy record stream plus the full population the engine must be
// provisioned for (base subscribers and churn joiners). It builds no
// engine: NewDriver and ResumeDriver add one, and Materialize drains
// the stream into a trace. Two streams from the same spec and topology
// emit the same records hour for hour.
func NewStream(spec Spec, topo hfc.Config) (*synth.Stream, []trace.UserID, error) {
	comp, err := spec.compile(topo)
	if err != nil {
		return nil, nil, err
	}
	stream, err := synth.NewStream(comp.streamConfig(), comp.hooks())
	if err != nil {
		return nil, nil, err
	}
	return stream, comp.population, nil
}

// NewDriver validates the spec against the engine configuration,
// compiles its stream, builds the live System for the scenario's
// population and catalog, and arms every phase's faults: the one place
// a scenario's plant is built. Offline strategies (the oracle) are
// rejected by the engine: a live scenario stream has no future
// knowledge to hand them.
func NewDriver(cfg core.Config, spec Spec, opts Options) (*Driver, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	stream, users, err := NewStream(spec, cfg.Topology)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg, core.Workload{Users: users, Lengths: stream.Lengths()})
	if err != nil {
		return nil, err
	}
	for _, ph := range spec.Phases {
		for i, f := range ph.Faults {
			if err := sys.Disrupt(f); err != nil {
				return nil, fmt.Errorf("scenario %s: phase %q fault %d (%s): %w", spec.Name, ph.Name, i, f.Kind(), err)
			}
		}
	}
	return &Driver{spec: spec, opts: opts.withDefaults(), topo: cfg.Topology, sys: sys, stream: stream}, nil
}

// ResumeDriver restores st, the state of the spec's run after its first
// hours hours, and returns a Driver that streams the rest. It
// regenerates and skips those hours, and refuses a state whose record
// count they do not match: a different seed or an edited spec. The
// snapshot carries the faults not yet applied, so none are armed again.
func ResumeDriver(st *core.SystemState, ro core.RestoreOptions, spec Spec, hours int, opts Options) (*Driver, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	stream, _, err := NewStream(spec, st.Config.Topology)
	if err != nil {
		return nil, err
	}
	skipped := 0
	for h := 0; h < hours; h++ {
		if stream.Done() {
			return nil, fmt.Errorf("scenario: the snapshot claims %d hours but the %s workload ends after %d", hours, spec.Name, h)
		}
		recs, _, err := stream.NextHour()
		if err != nil {
			return nil, err
		}
		skipped += len(recs)
	}
	if hours < 0 || skipped != st.Submitted {
		return nil, fmt.Errorf("scenario: regenerated %s workload diverges from the snapshot: %d records in %d hours, snapshot says %d — was the snapshot created with a different seed?",
			spec.Name, skipped, hours, st.Submitted)
	}
	sys, err := core.RestoreSystem(st, ro)
	if err != nil {
		return nil, err
	}
	return &Driver{spec: spec, opts: opts.withDefaults(), topo: st.Config.Topology, sys: sys, stream: stream,
		from: time.Duration(hours) * time.Hour}, nil
}

// System returns the live engine, for mid-run Snapshot access.
func (d *Driver) System() *core.System { return d.sys }

// Checkpoints returns the checkpoint series collected so far.
func (d *Driver) Checkpoints() []Checkpoint { return d.checkpoints }

// Stopped reports whether Run finished early on an Options.Stop
// request rather than by exhausting the scenario stream.
func (d *Driver) Stopped() bool { return d.stopped }

// Run streams the rest of the scenario and finalizes the engine. It
// can be called once. When OnCheckpoint returns Pause, Run returns a
// nil Result and a nil error and leaves the engine open.
func (d *Driver) Run() (*core.Result, error) {
	if d.ran {
		return nil, fmt.Errorf("scenario: driver already run")
	}
	d.ran = true

	start := d.opts.now()
	var pending []trace.Record
	pendingFrom := d.from
	nextCheckpoint := d.opts.Checkpoint
	if d.opts.Checkpoint > 0 {
		nextCheckpoint = (d.from/d.opts.Checkpoint + 1) * d.opts.Checkpoint
	}
	snapshotDone := d.opts.SnapshotAt == 0

	for !d.stream.Done() {
		if stopRequested(d.opts.Stop) {
			d.stopped = true
			break
		}
		recs, info, err := d.stream.NextHour()
		if err != nil {
			return nil, err
		}
		hourEnd := info.Start + time.Hour

		atCheckpoint := d.opts.Checkpoint > 0 && (hourEnd >= nextCheckpoint || d.stream.Done())
		atSnapshot := !snapshotDone && hourEnd >= d.opts.SnapshotAt
		flush := hourEnd-pendingFrom >= d.opts.Chunk || atCheckpoint || atSnapshot || d.stream.Done()
		if len(pending) > 0 || !flush {
			// Only hours that share a chunk are copied; an hour that
			// makes a chunk of its own goes to the engine as generated.
			pending = append(pending, recs...)
			recs = pending
		}
		if flush {
			if len(recs) > 0 {
				if err := d.sys.SubmitBatch(recs); err != nil {
					return nil, fmt.Errorf("scenario %s: submitting hour d%02d/%02d: %w",
						d.spec.Name, info.Day, info.Hour, err)
				}
			}
			pending = pending[:0]
			pendingFrom = hourEnd
			d.throttle(start, hourEnd-d.from)
		}
		if atSnapshot {
			st, err := d.sys.ExportState()
			if err != nil {
				return nil, fmt.Errorf("scenario %s: snapshot at %v: %w", d.spec.Name, hourEnd, err)
			}
			if d.opts.SnapshotFuture {
				// Materialize generates the same sorted hour chunks the
				// stream hands out, so the full record list lines up with
				// the snapshot's Submitted cursor.
				tr, err := Materialize(d.spec, d.topo)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: snapshot at %v: materialize future: %w", d.spec.Name, hourEnd, err)
				}
				st.Future = tr.Records
			}
			if err := d.opts.OnSnapshot(st); err != nil {
				return nil, fmt.Errorf("scenario %s: snapshot at %v: %w", d.spec.Name, hourEnd, err)
			}
			snapshotDone = true
		}
		if atCheckpoint {
			cp := Checkpoint{
				At:      hourEnd,
				Phases:  d.spec.ActivePhases(hourEnd - time.Second),
				Metrics: d.sys.Snapshot(),
			}
			d.checkpoints = append(d.checkpoints, cp)
			for nextCheckpoint <= hourEnd {
				nextCheckpoint += d.opts.Checkpoint
			}
			if d.opts.OnCheckpoint != nil {
				if err := d.opts.OnCheckpoint(cp); errors.Is(err, Pause) {
					return nil, nil
				} else if err != nil {
					return nil, fmt.Errorf("scenario %s: checkpoint at %v: %w", d.spec.Name, hourEnd, err)
				}
			}
		}
	}
	// A stop between chunk boundaries leaves streamed-but-unsubmitted
	// records pending; flush them so the Result covers every record the
	// stream handed out.
	if len(pending) > 0 {
		if err := d.sys.SubmitBatch(pending); err != nil {
			return nil, fmt.Errorf("scenario %s: submitting final chunk: %w", d.spec.Name, err)
		}
	}
	return d.sys.Close()
}

// throttle holds the virtual clock to the configured wall-clock
// acceleration: it sleeps until wall time has caught up with
// virtual/Acceleration.
func (d *Driver) throttle(start time.Time, virtual time.Duration) {
	if d.opts.Acceleration <= 0 {
		return
	}
	target := time.Duration(float64(virtual) / d.opts.Acceleration)
	if ahead := target - d.opts.now().Sub(start); ahead > 0 {
		d.opts.sleep(ahead)
	}
}

// stopRequested polls a stop channel without blocking; a nil channel
// never stops.
func stopRequested(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// stoppableSleep returns a sleep that a closed stop channel cuts
// short, so a throttled (low-acceleration) run reacts to shutdown
// immediately instead of finishing a long wall-clock wait. A nil stop
// degrades to time.Sleep.
func stoppableSleep(stop <-chan struct{}) func(time.Duration) {
	if stop == nil {
		return time.Sleep
	}
	return func(d time.Duration) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-stop:
		}
	}
}
