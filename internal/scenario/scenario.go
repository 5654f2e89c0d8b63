// Package scenario is the composable live-workload subsystem: it
// describes workloads as a timeline of phases stacking modulators onto
// a base synthetic trace generator, produces their session-record
// stream lazily (reusing internal/synth's popularity and session
// machinery), and drives a live core.System with it through a chunked,
// virtual-clock Driver.
//
// Everything is seeded and deterministic: the same Spec generates the
// same byte-identical record stream every run, and driving it through
// the engine at any Config.Parallelism produces identical Results — so
// caching strategies can be compared under flash crowds, premieres,
// churn waves, and regional drift exactly as they are under the
// paper's static trace.
package scenario

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// Spec describes one scenario: a base synthetic workload plus an
// ordered timeline of phases, each stacking modulators onto the base
// while active. The zero value is not valid; see the registry's
// built-in builders or construct Phases explicitly and Validate.
type Spec struct {
	// Name identifies the scenario ("flash-crowd", ...).
	Name string

	// Description says what question the scenario answers.
	Description string

	// Base is the underlying synthetic workload: population, catalog,
	// popularity skew, diurnal shape, and seed. Base.Days bounds the
	// scenario timeline.
	Base synth.Config

	// Phases is the timeline, ordered by From. Gaps between phases run
	// the unmodulated base workload.
	Phases []Phase
}

// Phase is one named window [From, To) of the scenario timeline; its
// modulators apply while the virtual clock is inside the window, and
// its faults hit the plant at the absolute instants they each carry.
type Phase struct {
	Name       string
	From, To   time.Duration
	Modulators []Modulator
	Faults     []Fault
}

// Fault is a plant-level disruption riding the phase timeline — demand
// stays the base workload's, but supply degrades: boxes fail, caches
// wipe, coax narrows. Faults validate plant-independently here and
// compile to engine disruptions when the Driver arms them (the concrete
// models live in internal/adversity). Unlike modulators, a fault is not
// scoped by its phase window: it carries its own absolute schedule, and
// the phase only names the incident it belongs to.
type Fault interface {
	core.Disruptor

	// Kind names the fault model ("node_failure", ...).
	Kind() string

	// Validate checks the fault's parameters before any plant exists.
	Validate() error
}

// Contains reports whether t falls inside the phase window.
func (p Phase) Contains(t time.Duration) bool { return t >= p.From && t < p.To }

// Modulator reshapes workload generation while its phase is active.
// The set is closed: FlashCrowd, Premiere, IntensityShift, Churn, and
// SkewDrift. Each is deterministic given the spec, so scenarios replay
// bit-for-bit.
type Modulator interface {
	// Kind names the modulator type ("flash-crowd", ...).
	Kind() string

	// validate checks the modulator's knobs against the scenario
	// context (catalog size, neighborhood count, phase window).
	validate(ctx *specContext, ph Phase) error
}

// specContext carries the resolved scenario-wide quantities modulator
// validation checks references against.
type specContext struct {
	base synth.Config
	// catalogSize counts base programs plus every premiere in the spec,
	// so a flash crowd may target a premiere title.
	catalogSize int
	// neighborhoods is the coax neighborhood count the full population
	// (base plus joiners) builds under the configured size.
	neighborhoods int
}

// Span returns the scenario's timeline extent [0, Days).
func (s Spec) Span() time.Duration {
	return time.Duration(s.Base.Days) * units.Day
}

// Population returns the subscriber population the scenario's engine
// must be provisioned for: the base users plus every churn joiner
// (idle until their join instant, but homed and contributing cache
// from day zero, the way a provisioned set-top box would).
func (s Spec) Population() []trace.UserID {
	total := s.Base.Users + s.totalJoins()
	out := make([]trace.UserID, total)
	for i := range out {
		out[i] = trace.UserID(i)
	}
	return out
}

// Phase returns the first phase with the given name.
func (s Spec) Phase(name string) (Phase, bool) {
	for _, p := range s.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return Phase{}, false
}

// ActivePhases returns the comma-joined names of phases containing t.
func (s Spec) ActivePhases(t time.Duration) string {
	var names []string
	for _, p := range s.Phases {
		if p.Contains(t) {
			names = append(names, p.Name)
		}
	}
	return strings.Join(names, ",")
}

func (s Spec) totalJoins() int {
	joins := 0
	for _, ph := range s.Phases {
		for _, m := range ph.Modulators {
			if c, ok := m.(Churn); ok {
				joins += c.Joins
			}
		}
	}
	return joins
}

func (s Spec) premiereCount() int {
	n := 0
	for _, ph := range s.Phases {
		for _, m := range ph.Modulators {
			if _, ok := m.(Premiere); ok {
				n++
			}
		}
	}
	return n
}

// Validate checks the spec against the neighborhood size it will be
// driven with: the base workload, phase ordering and windows, and every
// modulator's knobs — including that modulators reference programs in
// the catalog (base plus premieres) and neighborhoods that exist for
// the scenario population. It mirrors core.Config's validation style:
// structural errors are rejected before any generation starts.
func (s Spec) Validate(neighborhoodSize int) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if neighborhoodSize <= 0 {
		return fmt.Errorf("scenario: neighborhood size must be positive, got %d", neighborhoodSize)
	}
	if err := s.Base.Validate(); err != nil {
		return fmt.Errorf("scenario %s: base workload: %w", s.Name, err)
	}
	population := s.Base.Users + s.totalJoins()
	ctx := &specContext{
		base:          s.Base,
		catalogSize:   s.Base.Programs + s.premiereCount(),
		neighborhoods: (population + neighborhoodSize - 1) / neighborhoodSize,
	}
	span := s.Span()
	last := time.Duration(0)
	for i, ph := range s.Phases {
		switch {
		case ph.Name == "":
			return fmt.Errorf("scenario %s: phase %d needs a name", s.Name, i)
		case ph.From < 0:
			return fmt.Errorf("scenario %s: phase %q starts before the timeline (%v)", s.Name, ph.Name, ph.From)
		case ph.To <= ph.From:
			return fmt.Errorf("scenario %s: phase %q window [%v, %v) is empty", s.Name, ph.Name, ph.From, ph.To)
		case ph.To > span:
			return fmt.Errorf("scenario %s: phase %q ends at %v, past the %d-day timeline", s.Name, ph.Name, ph.To, s.Base.Days)
		case ph.From < last:
			return fmt.Errorf("scenario %s: phases out of order: %q starts at %v before the previous phase's %v", s.Name, ph.Name, ph.From, last)
		}
		last = ph.From
		for j, m := range ph.Modulators {
			if err := m.validate(ctx, ph); err != nil {
				return fmt.Errorf("scenario %s: phase %q modulator %d (%s): %w", s.Name, ph.Name, j, m.Kind(), err)
			}
		}
		for j, f := range ph.Faults {
			if f == nil {
				return fmt.Errorf("scenario %s: phase %q fault %d is nil", s.Name, ph.Name, j)
			}
			if err := f.Validate(); err != nil {
				return fmt.Errorf("scenario %s: phase %q fault %d (%s): %w", s.Name, ph.Name, j, f.Kind(), err)
			}
		}
	}
	return nil
}

// Materialize generates the scenario's complete record stream eagerly
// as a trace — the batch-replay form of exactly the records the Driver
// streams (the trace is the concatenation of the stream's sorted hour
// chunks, and its length table is the scenario catalog). The topology
// configuration must match the one the Driver's engine runs with, so
// region-targeted modulators resolve user homes identically.
func Materialize(spec Spec, topo hfc.Config) (*trace.Trace, error) {
	stream, _, err := NewStream(spec, topo)
	if err != nil {
		return nil, err
	}
	tr := trace.New()
	for p, l := range stream.Lengths() {
		tr.ProgramLengths[p] = l
	}
	for !stream.Done() {
		recs, _, err := stream.NextHour()
		if err != nil {
			return nil, err
		}
		tr.Records = append(tr.Records, recs...)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: materialized invalid trace: %w", spec.Name, err)
	}
	return tr, nil
}

// mix is a splitmix64 finalizer: the deterministic hash behind per-user
// churn instants and per-(region, program) drift phases.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// frac01 maps a hash to [0, 1).
func frac01(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// or1 treats a zero knob as "unset, use 1".
func or1(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func finitePositive(v float64) bool {
	return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
}
