// Package telemetry is the production-observability layer of the
// serving engine: hot-path-safe metric primitives (lock-free atomic
// counters and gauges, a mergeable t-digest for latency percentiles), a
// Prometheus text-format registry rendering the engine's live Metrics
// types, and a Collector that models per-request latency (queueing
// delay at the central server and on the coax channel, derived from the
// engine's load meters) and taps the core engine's Collector seam.
//
// Everything here is strictly observational. The engine never reads
// telemetry state, so simulation results are bit-identical with the
// collector attached — TestTelemetryIsObservational pins that — and
// nothing on the hot path blocks: counters and gauges are single
// atomic operations, and the per-neighborhood digest mutexes are only
// ever contended by a scrape, never by another shard worker.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a lock-free monotonically increasing counter, safe for
// concurrent use from any number of goroutines.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a lock-free integer gauge — a value that can go up and
// down, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FloatGauge is a lock-free float64 gauge, stored as raw IEEE-754 bits.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }
