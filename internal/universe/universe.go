// Package universe generates parameterized synthetic cable plants at
// named scale tiers — from the paper's 41,698-subscriber PowerInfo
// population up to a million-subscriber metro ("mega") — and
// orchestrates checkpointed long runs over them.
//
// A universe is a recipe, not a dataset: it compiles to a
// scenario.Spec whose lazy synth.Stream generates the workload hour by
// hour, so a mega-scale trace (tens of millions of session records) is
// never materialized. What does live in memory is the plant and the
// engine's hot per-session state, which internal/core keeps in
// shard-owned slabs for exactly this reason. The package adds the
// remaining discipline: a process memory reading (MeasureFootprint,
// PeakRSS), and LongRun, a scenario.Driver plus a ledger, which splits
// a multi-day run into resumable checkpointed legs.
//
// Determinism contract: a tier's runs are bit-identical across
// engine parallelism and across checkpoint/resume boundaries. The
// mega-lite tier exists to pin that contract in CI at a size the test
// suite can afford.
package universe

import (
	"fmt"
	"time"

	"cablevod/internal/adversity"
	"cablevod/internal/core"
	"cablevod/internal/scenario"
	"cablevod/internal/synth"
	"cablevod/internal/units"
)

// Config describes one universe: a subscriber population, how it is
// carved into neighborhoods, the catalog scaled to it, and the length
// of the run. The zero value is not valid; start from a named tier
// (Tier, Tiers) or fill every field and Validate.
type Config struct {
	// Name identifies the tier ("paper", "quick", "mega-lite", "mega").
	Name string

	// Description is a one-line human summary for listings.
	Description string

	// Subscribers is the total population across the plant.
	Subscribers int

	// Neighborhoods is the target neighborhood (headend) count. The
	// plant normalizes to subscribers-per-headend: every neighborhood
	// holds NeighborhoodSize() boxes except a possibly smaller last one.
	Neighborhoods int

	// Catalog is the program count, scaled proportionally to the
	// population (ScaledCatalog) so per-subscriber demand statistics
	// match the paper's trace at every tier.
	Catalog int

	// Days is the simulated span.
	Days int

	// Seed drives workload generation. Plant placement derives its own
	// seed from the neighborhood size, as the paper's evaluation does.
	Seed uint64

	// HeteroMin/HeteroMax, when both set, spread per-box cache storage
	// uniformly across the fleet at t=0 (an adversity.HeteroCache fault
	// with a seed derived from Seed) instead of the paper's uniform
	// 10 GB boxes. Mega tiers use this: a million-box fleet is never
	// homogeneous.
	HeteroMin, HeteroMax units.ByteSize
}

// paperUsers/paperPrograms anchor proportional catalog scaling to the
// PowerInfo trace the paper evaluates on.
const (
	paperUsers    = 41_698
	paperPrograms = 8_278
)

// ScaledCatalog returns the catalog size proportional to the paper's
// programs-per-subscriber ratio for a population of subs.
func ScaledCatalog(subs int) int {
	n := (subs*paperPrograms + paperUsers/2) / paperUsers
	if n < 1 {
		n = 1
	}
	return n
}

// Validate checks the universe's parameters.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("universe: Name must be set")
	case c.Subscribers <= 0:
		return fmt.Errorf("universe %s: Subscribers must be positive (got %d)", c.Name, c.Subscribers)
	case c.Neighborhoods <= 0:
		return fmt.Errorf("universe %s: Neighborhoods must be positive (got %d)", c.Name, c.Neighborhoods)
	case c.Neighborhoods > c.Subscribers:
		return fmt.Errorf("universe %s: %d neighborhoods exceed the %d-subscriber population — every neighborhood needs at least one box",
			c.Name, c.Neighborhoods, c.Subscribers)
	case c.Catalog <= 0:
		return fmt.Errorf("universe %s: Catalog must be positive (got %d)", c.Name, c.Catalog)
	case c.Days <= 0:
		return fmt.Errorf("universe %s: Days must be positive (got %d)", c.Name, c.Days)
	case (c.HeteroMin == 0) != (c.HeteroMax == 0):
		return fmt.Errorf("universe %s: HeteroMin and HeteroMax must be set together", c.Name)
	case c.HeteroMin > c.HeteroMax:
		return fmt.Errorf("universe %s: HeteroMin %v exceeds HeteroMax %v", c.Name, c.HeteroMin, c.HeteroMax)
	}
	return nil
}

// NeighborhoodSize is the subscribers-per-headend the plant is built
// with: the population divided evenly across the target neighborhood
// count, rounded up so the plant never exceeds the target.
func (c Config) NeighborhoodSize() int {
	return (c.Subscribers + c.Neighborhoods - 1) / c.Neighborhoods
}

// Heterogeneous reports whether the tier spreads per-box storage.
func (c Config) Heterogeneous() bool { return c.HeteroMin != 0 || c.HeteroMax != 0 }

// SynthConfig is the tier's workload-generator configuration: the
// paper-calibrated defaults with the tier's population, catalog, span,
// and seed.
func (c Config) SynthConfig() synth.Config {
	sc := synth.DefaultConfig()
	sc.Seed = c.Seed
	sc.Users = c.Subscribers
	sc.Programs = c.Catalog
	sc.Days = c.Days
	return sc
}

// heteroSeedSalt decorrelates the storage-spread draws from the
// workload seed (splitmix64's increment).
const heteroSeedSalt = 0x9e3779b97f4a7c15

// Spec compiles the universe to a scenario spec: the tier's base
// workload, plus — for heterogeneous tiers — a t=0 hetero_cache fault
// that re-provisions every box's storage with seeded uniform draws in
// [HeteroMin, HeteroMax].
func (c Config) Spec() scenario.Spec {
	spec := scenario.Spec{
		Name:        "universe/" + c.Name,
		Description: c.Description,
		Base:        c.SynthConfig(),
	}
	if c.Heterogeneous() {
		spec.Phases = []scenario.Phase{{
			Name: "hetero-fleet",
			From: 0,
			To:   time.Hour,
			Faults: []scenario.Fault{adversity.HeteroCache{
				At:           0,
				Neighborhood: -1,
				Min:          c.HeteroMin,
				Max:          c.HeteroMax,
				Seed:         c.Seed ^ heteroSeedSalt,
			}},
		}}
	}
	return spec
}

// EngineConfig overlays the tier's plant shape onto an engine
// configuration: callers keep strategy, fill mode, warmup, and
// parallelism; the universe dictates the topology's neighborhood size.
func (c Config) EngineConfig(base core.Config) core.Config {
	base.Topology.NeighborhoodSize = c.NeighborhoodSize()
	return base
}

// Records estimates the session-record volume the tier generates,
// for progress reporting and feasibility checks.
func (c Config) Records() int {
	return int(float64(c.Subscribers) * float64(c.Days) * synth.DefaultConfig().SessionsPerUserDay)
}
