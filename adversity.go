package cablevod

import (
	"fmt"

	"cablevod/internal/adversity"
	"cablevod/internal/core"
)

// SystemState is the complete serialized state of a running System:
// configuration, workload, ingest cursors, the pending disruption
// schedule, and every shard's live state (cache contents and policy
// bookkeeping, placements, event queues, in-flight sessions, rate
// meters, counters). Export one with System.ExportState, persist it
// with SaveState/LoadState, and bring it back to life with Restore. A
// restored System continues the run bit-identically to one that was
// never interrupted, at every Config.Parallelism.
type SystemState = core.SystemState

// Disruptor contributes scheduled supply-side disruptions to a run.
// The adversity faults (NodeFailure, ColdRestart, CoaxDegrade,
// HeteroCache) all implement it; arm one with System.Disrupt.
type Disruptor = core.Disruptor

// NodeFailure takes a fraction of a neighborhood's set-top boxes off
// the cooperative cache — instantly or ramped over RampHours — and
// optionally restores full capacity at RestoreAt. Which boxes fail is
// a deterministic function of Seed and the neighborhood.
type NodeFailure = adversity.NodeFailure

// ColdRestart wipes a neighborhood's pooled cache contents and
// placements at an instant, keeping meters, counters and popularity
// history — the "headend power cycle" incident.
type ColdRestart = adversity.ColdRestart

// CoaxDegrade scales a neighborhood's VoD coax capacity by Factor at
// an instant, optionally restoring the configured capacity at
// RestoreAt.
type CoaxDegrade = adversity.CoaxDegrade

// HeteroCache re-provisions a neighborhood with heterogeneous per-STB
// cache sizes drawn deterministically from [Min, Max].
type HeteroCache = adversity.HeteroCache

// ForkOptions tunes a RunForks comparison.
type ForkOptions = adversity.ForkOptions

// ForkArm is one strategy's outcome in a fork comparison.
type ForkArm = adversity.ForkArm

// ForkReport is the comparative outcome of racing N strategies from
// one warm snapshot; Table renders the comparison.
type ForkReport = adversity.ForkReport

// ExportState serializes the engine's complete live state. The export
// reflects exactly the records submitted so far; the System remains
// usable afterwards.
func (s *System) ExportState() (*SystemState, error) {
	return s.sys.ExportState()
}

// Disrupt schedules a Disruptor's supply-side disruptions onto the
// run's timeline. Disruptions apply deterministically as virtual time
// passes their instants; scheduling one before already-submitted time
// is an error.
func (s *System) Disrupt(d Disruptor) error {
	return s.sys.Disrupt(d)
}

// Fork deep-copies the live engine into n fully independent Systems,
// each continuing from the same warm state. Forks share no mutable
// state: driving them concurrently is race-free, and each produces
// results bit-identical to an independent warm run.
func (s *System) Fork(n int) ([]*System, error) {
	forks, err := s.sys.Fork(n)
	if err != nil {
		return nil, err
	}
	out := make([]*System, len(forks))
	for i, f := range forks {
		out[i] = &System{sys: f}
	}
	return out, nil
}

// SaveState writes a SystemState to path in the versioned snapshot
// format (a JSON header line followed by checksummed binary sections,
// one per neighborhood), atomically via a temp file and rename.
func SaveState(path string, st *SystemState) error {
	return core.SaveStateFile(path, st)
}

// LoadState reads a SystemState written by SaveState, rejecting
// version mismatches before decoding the body.
func LoadState(path string) (*SystemState, error) {
	return core.LoadStateFile(path)
}

// RestoreOptions tunes how a serialized state is brought back to life.
// The zero value restores the snapshot as-is.
type RestoreOptions struct {
	// Strategy, when non-empty, forks the warm state onto a different
	// caching strategy: the inherited cache contents seed the fresh
	// policy, while placements, meters and counters carry over
	// unchanged.
	Strategy string

	// Parallelism, when non-zero, overrides the restored engine's
	// worker-pool width. Results are bit-identical at every level.
	Parallelism int
}

// Restore rebuilds a running System from a serialized state. The state
// value is not consumed: restoring twice yields fully independent
// Systems, which is what lets one snapshot seed many fork arms.
func Restore(st *SystemState, opts RestoreOptions) (*System, error) {
	sys, err := core.RestoreSystem(st, core.RestoreOptions{
		Strategy:    opts.Strategy,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// RunForks races one fork arm per strategy from the same warm
// snapshot through the same future records — the mid-scenario A/B
// comparison. Arms run concurrently yet deterministically: each arm's
// result is bit-identical to restoring the snapshot alone and driving
// it serially. The report's per-arm hit ratio and savings cover only
// the post-fork window, so strategies are compared on how they handle
// the incident, not on the shared history.
//
// future is the record tail to replay, typically taken from a
// snapshot saved with the future embedded (vodsim -snapshot-out, or
// ScenarioOptions/SpecRunOptions.SnapshotFuture): st.Future[st.Submitted:].
func RunForks(st *SystemState, strategies []string, future []Record, opts ForkOptions) (*ForkReport, error) {
	return adversity.RunForks(st, strategies, future, opts)
}

// FutureTail returns the not-yet-submitted remainder of the workload
// embedded in a snapshot — the records a fork comparison replays. An
// error reports a snapshot saved without its future.
func FutureTail(st *SystemState) ([]Record, error) {
	if st == nil {
		return nil, fmt.Errorf("cablevod: nil system state")
	}
	if len(st.Future) == 0 {
		return nil, fmt.Errorf("cablevod: snapshot has no embedded future to replay (save it with the future included: vodsim -snapshot-out, or SnapshotFuture in the scenario options)")
	}
	if st.Submitted > len(st.Future) {
		return nil, fmt.Errorf("cablevod: snapshot submitted cursor %d exceeds its %d-record future", st.Submitted, len(st.Future))
	}
	return st.Future[st.Submitted:], nil
}
