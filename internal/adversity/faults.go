// Package adversity is the supply-side fault-injection layer: high-level
// fault models — node failures, cold restarts, coax degradation,
// heterogeneous fleets — that compile down to the engine's disruption
// primitives (core.Disruption) against a built plant. Every fault is
// deterministic: which boxes fail, and when, depends only on the fault's
// parameters and seed, never on wall clock or map order, so adversity
// runs obey the same bit-identical reproducibility contract as clean
// runs.
//
// The package also contains the fork runner (forks.go): restoring one
// snapshot onto N strategies and racing them through the same incident.
package adversity

import (
	"fmt"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/randdist"
	"cablevod/internal/units"
)

// Fault is one high-level fault model. A Fault compiles itself into
// engine disruptions against the built plant, which makes every fault a
// core.Disruptor usable directly with System.Disrupt. Compiling
// validates first, so a fault with bad parameters never reaches the
// engine.
type Fault interface {
	// Kind names the fault model (the spec-file phase kind).
	Kind() string
	// Validate checks the fault's parameters, plant-independently.
	Validate() error
	// Disruptions validates the fault, then compiles it for the given
	// plant and run configuration (core.Disruptor).
	Disruptions(topo *hfc.Topology, cfg core.Config) ([]core.Disruption, error)
}

// basePeerStorage reads the plant's per-box storage contribution; the
// topology has already normalized zero config values to the defaults.
func basePeerStorage(topo *hfc.Topology) units.ByteSize {
	return topo.Config().PerPeerStorage
}

// baseCoaxCapacity reads the plant's VoD coax bandwidth.
func baseCoaxCapacity(topo *hfc.Topology) units.BitRate {
	return topo.Config().CoaxCapacity
}

// invalid wraps a fault's Validate error with its kind, or returns nil.
func invalid(f Fault) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("adversity: %s: %w", f.Kind(), err)
	}
	return nil
}

// neighborhoods resolves fault f's target list: the named neighborhood
// nb, or all of them for -1. A neighborhood the plant lacks is refused
// with f's kind, as invalid refuses a bad parameter.
func neighborhoods(topo *hfc.Topology, f Fault, nb int) ([]*hfc.Neighborhood, error) {
	if nb == -1 {
		return topo.Neighborhoods(), nil
	}
	if nb < 0 || nb >= topo.NeighborhoodCount() {
		return nil, fmt.Errorf("adversity: %s: neighborhood %d of %d", f.Kind(), nb, topo.NeighborhoodCount())
	}
	return topo.Neighborhoods()[nb : nb+1], nil
}

// uniformCapacities builds an n-box capacity vector at the plant's
// uniform baseline.
func uniformCapacities(n int, per units.ByteSize) []units.ByteSize {
	caps := make([]units.ByteSize, n)
	for i := range caps {
		caps[i] = per
	}
	return caps
}

// NodeFailure takes a fraction of a neighborhood's boxes out of the
// cooperative cache: their storage contribution drops to zero (the box
// still plays its own television — failure is modeled on the supply
// side). The failed set is a deterministic seeded sample. A ramp spreads
// the failure over hourly steps; a restore time brings the full fleet
// back.
type NodeFailure struct {
	// At is when the failure begins.
	At time.Duration
	// Neighborhood is the affected neighborhood, or -1 for all.
	Neighborhood int
	// Fraction in (0, 1] of each affected neighborhood's boxes to fail.
	Fraction float64
	// RampHours spreads the failure linearly over this many hourly
	// steps (0 or 1 = instant).
	RampHours int
	// RestoreAt, when positive, restores every failed box's capacity at
	// that time. The cache does not refill by magic — contents were
	// evicted; only supply returns.
	RestoreAt time.Duration
	// Seed picks the failed sample deterministically.
	Seed uint64
}

// Kind names the fault.
func (f NodeFailure) Kind() string { return "node_failure" }

// Validate checks the parameters.
func (f NodeFailure) Validate() error {
	if f.At < 0 {
		return fmt.Errorf("negative time %v", f.At)
	}
	if f.Neighborhood < -1 {
		return fmt.Errorf("neighborhood %d", f.Neighborhood)
	}
	if f.Fraction <= 0 || f.Fraction > 1 {
		return fmt.Errorf("fraction %v outside (0, 1]", f.Fraction)
	}
	if f.RampHours < 0 {
		return fmt.Errorf("negative ramp %d hours", f.RampHours)
	}
	if f.RestoreAt != 0 && f.RestoreAt <= f.At {
		return fmt.Errorf("restore at %v not after failure at %v", f.RestoreAt, f.At)
	}
	return nil
}

// Disruptions compiles the failure into per-step capacity vectors.
func (f NodeFailure) Disruptions(topo *hfc.Topology, cfg core.Config) ([]core.Disruption, error) {
	if err := invalid(f); err != nil {
		return nil, err
	}
	nbs, err := neighborhoods(topo, f, f.Neighborhood)
	if err != nil {
		return nil, err
	}
	per := basePeerStorage(topo)
	steps := f.RampHours
	if steps < 1 {
		steps = 1
	}
	var out []core.Disruption
	for _, nb := range nbs {
		n := len(nb.Peers())
		failed := int(float64(n)*f.Fraction + 0.5)
		if failed < 1 {
			failed = 1
		}
		if failed > n {
			failed = n
		}
		// The failure order is a seeded permutation per neighborhood, so
		// equal seeds reproduce the same outage exactly.
		order := randdist.NewRNG(f.Seed, uint64(nb.ID())).Perm(n)
		for step := 1; step <= steps; step++ {
			downBy := failed * step / steps
			caps := uniformCapacities(n, per)
			for i := 0; i < downBy; i++ {
				caps[order[i]] = 0
			}
			out = append(out, core.Disruption{
				At:             f.At + time.Duration(step-1)*time.Hour,
				Kind:           core.DisruptPeerCapacities,
				Neighborhood:   nb.ID(),
				PeerCapacities: caps,
			})
		}
		if f.RestoreAt > 0 {
			out = append(out, core.Disruption{
				At:             f.RestoreAt,
				Kind:           core.DisruptPeerCapacities,
				Neighborhood:   nb.ID(),
				PeerCapacities: uniformCapacities(n, per),
			})
		}
	}
	return out, nil
}

// ColdRestart wipes a neighborhood's cache at a point in time: contents
// and placements are lost, popularity history and meters survive — a
// software restart losing volatile state.
type ColdRestart struct {
	// At is when the restart happens.
	At time.Duration
	// Neighborhood is the affected neighborhood, or -1 for all.
	Neighborhood int
}

// Kind names the fault.
func (f ColdRestart) Kind() string { return "cold_restart" }

// Validate checks the parameters.
func (f ColdRestart) Validate() error {
	if f.At < 0 {
		return fmt.Errorf("negative time %v", f.At)
	}
	if f.Neighborhood < -1 {
		return fmt.Errorf("neighborhood %d", f.Neighborhood)
	}
	return nil
}

// Disruptions compiles the restart.
func (f ColdRestart) Disruptions(topo *hfc.Topology, cfg core.Config) ([]core.Disruption, error) {
	if err := invalid(f); err != nil {
		return nil, err
	}
	if _, err := neighborhoods(topo, f, f.Neighborhood); err != nil {
		return nil, err
	}
	return []core.Disruption{{At: f.At, Kind: core.DisruptColdRestart, Neighborhood: f.Neighborhood}}, nil
}

// CoaxDegrade scales a neighborhood's VoD-available coax bandwidth —
// an amplifier fault or ingress noise eating spectrum. In-flight
// broadcasts drain naturally; new admissions see the reduced capacity.
type CoaxDegrade struct {
	// At is when degradation begins.
	At time.Duration
	// Neighborhood is the affected neighborhood, or -1 for all.
	Neighborhood int
	// Factor in (0, 1) scales the configured capacity.
	Factor float64
	// RestoreAt, when positive, returns the channel to full capacity.
	RestoreAt time.Duration
}

// Kind names the fault.
func (f CoaxDegrade) Kind() string { return "coax_degrade" }

// Validate checks the parameters.
func (f CoaxDegrade) Validate() error {
	if f.At < 0 {
		return fmt.Errorf("negative time %v", f.At)
	}
	if f.Neighborhood < -1 {
		return fmt.Errorf("neighborhood %d", f.Neighborhood)
	}
	if f.Factor <= 0 || f.Factor >= 1 {
		return fmt.Errorf("factor %v outside (0, 1)", f.Factor)
	}
	if f.RestoreAt != 0 && f.RestoreAt <= f.At {
		return fmt.Errorf("restore at %v not after degrade at %v", f.RestoreAt, f.At)
	}
	return nil
}

// Disruptions compiles the degradation.
func (f CoaxDegrade) Disruptions(topo *hfc.Topology, cfg core.Config) ([]core.Disruption, error) {
	if err := invalid(f); err != nil {
		return nil, err
	}
	if _, err := neighborhoods(topo, f, f.Neighborhood); err != nil {
		return nil, err
	}
	base := baseCoaxCapacity(topo)
	out := []core.Disruption{{
		At:           f.At,
		Kind:         core.DisruptCoaxCapacity,
		Neighborhood: f.Neighborhood,
		CoaxCapacity: units.BitRate(float64(base) * f.Factor),
	}}
	if f.RestoreAt > 0 {
		out = append(out, core.Disruption{
			At:           f.RestoreAt,
			Kind:         core.DisruptCoaxCapacity,
			Neighborhood: f.Neighborhood,
			CoaxCapacity: base,
		})
	}
	return out, nil
}

// HeteroCache replaces the uniform per-box storage contribution with a
// deterministic heterogeneous spread in [Min, Max] — the realistic
// deployment where boxes of several hardware generations contribute
// unevenly. Applied at time At (use 0 for "from the start").
type HeteroCache struct {
	// At is when the fleet becomes heterogeneous.
	At time.Duration
	// Neighborhood is the affected neighborhood, or -1 for all.
	Neighborhood int
	// Min and Max bound each box's contribution; each box draws
	// uniformly (seeded) from the inclusive range.
	Min, Max units.ByteSize
	// Seed picks the per-box draws deterministically.
	Seed uint64
}

// Kind names the fault.
func (f HeteroCache) Kind() string { return "hetero_cache" }

// Validate checks the parameters.
func (f HeteroCache) Validate() error {
	if f.At < 0 {
		return fmt.Errorf("negative time %v", f.At)
	}
	if f.Neighborhood < -1 {
		return fmt.Errorf("neighborhood %d", f.Neighborhood)
	}
	if f.Min < 0 || f.Max < f.Min {
		return fmt.Errorf("capacity range [%v, %v]", f.Min, f.Max)
	}
	return nil
}

// Disruptions compiles the spread.
func (f HeteroCache) Disruptions(topo *hfc.Topology, cfg core.Config) ([]core.Disruption, error) {
	if err := invalid(f); err != nil {
		return nil, err
	}
	nbs, err := neighborhoods(topo, f, f.Neighborhood)
	if err != nil {
		return nil, err
	}
	span := int64(f.Max - f.Min)
	var out []core.Disruption
	for _, nb := range nbs {
		n := len(nb.Peers())
		rng := randdist.NewRNG(f.Seed, uint64(nb.ID()))
		caps := make([]units.ByteSize, n)
		for i := range caps {
			if span == 0 {
				caps[i] = f.Min
				continue
			}
			caps[i] = f.Min + units.ByteSize(rng.Int64N(span+1))
		}
		out = append(out, core.Disruption{
			At:             f.At,
			Kind:           core.DisruptPeerCapacities,
			Neighborhood:   nb.ID(),
			PeerCapacities: caps,
		})
	}
	return out, nil
}
