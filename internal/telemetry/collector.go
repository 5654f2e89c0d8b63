package telemetry

import (
	"fmt"
	"sync"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// LatencyModel derives a per-request service latency from the engine's
// load-meter readings. The engine simulates bandwidth, not delay; this
// model turns its utilization signals into the latency a real serving
// system would exhibit, using the classic M/M/1 service-time inflation
// S/(1-rho) at each stage a request crosses:
//
//   - every request rides the neighborhood coax channel: delay
//     CoaxService / (1 - rho_coax), with rho_coax the channel's
//     broadcast utilization at the serve instant;
//   - a miss additionally queues at the central media server: delay
//     ServerService / (1 - rho_server), with rho_server the
//     neighborhood's previous-hour draw on the server against its
//     provisioned fiber share.
//
// Utilizations are clamped to MaxUtilization so a saturated hour
// reports a finite (large) latency instead of a vertical asymptote.
// All inputs are shard-local engine state, so the samples a
// neighborhood produces are identical at every Config.Parallelism.
type LatencyModel struct {
	// CoaxService is the base coax broadcast service time per segment
	// request (propagation + headend scheduling).
	CoaxService time.Duration

	// ServerService is the base central-server service time on a miss
	// (fiber round trip + server dispatch).
	ServerService time.Duration

	// ServerCapacity is the central-server fiber share provisioned per
	// neighborhood, the denominator of the server utilization.
	ServerCapacity units.BitRate

	// MaxUtilization caps both utilizations (default 0.97).
	MaxUtilization float64
}

// DefaultLatencyModel returns the model the vodsim daemon runs with:
// 5 ms coax service, 20 ms server service, a 500 Mb/s fiber share per
// neighborhood, saturation clamped at 97%.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		CoaxService:    5 * time.Millisecond,
		ServerService:  20 * time.Millisecond,
		ServerCapacity: 500 * units.Mbps,
		MaxUtilization: 0.97,
	}
}

func (m LatencyModel) withDefaults() LatencyModel {
	d := DefaultLatencyModel()
	if m.CoaxService == 0 {
		m.CoaxService = d.CoaxService
	}
	if m.ServerService == 0 {
		m.ServerService = d.ServerService
	}
	if m.ServerCapacity == 0 {
		m.ServerCapacity = d.ServerCapacity
	}
	if m.MaxUtilization == 0 {
		m.MaxUtilization = d.MaxUtilization
	}
	return m
}

// Validate checks the model.
func (m LatencyModel) Validate() error {
	m = m.withDefaults()
	switch {
	case m.CoaxService < 0:
		return fmt.Errorf("telemetry: negative coax service time %v", m.CoaxService)
	case m.ServerService < 0:
		return fmt.Errorf("telemetry: negative server service time %v", m.ServerService)
	case m.ServerCapacity <= 0:
		return fmt.Errorf("telemetry: server capacity must be positive, got %v", m.ServerCapacity)
	case m.MaxUtilization <= 0 || m.MaxUtilization >= 1:
		return fmt.Errorf("telemetry: max utilization must be in (0, 1), got %v", m.MaxUtilization)
	}
	return nil
}

// Latency resolves one segment event to (coax delay, server delay).
// The server component is zero on a peer-served hit.
func (m LatencyModel) Latency(ev core.SegmentEvent) (coax, server time.Duration) {
	coax = inflate(m.CoaxService, utilization(ev.CoaxBusy, ev.CoaxCapacity, m.MaxUtilization))
	if !ev.Hit() {
		server = inflate(m.ServerService, utilization(ev.ServerRate, m.ServerCapacity, m.MaxUtilization))
	}
	return coax, server
}

func utilization(rate, capacity units.BitRate, cap_ float64) float64 {
	if capacity <= 0 {
		return 0
	}
	rho := float64(rate) / float64(capacity)
	if rho > cap_ {
		return cap_
	}
	if rho < 0 {
		return 0
	}
	return rho
}

func inflate(service time.Duration, rho float64) time.Duration {
	return time.Duration(float64(service) / (1 - rho))
}

// Sample is one recent-request entry in the collector's lossy ring.
type Sample struct {
	// At is the virtual serve time.
	At time.Duration
	// Neighborhood is the home shard.
	Neighborhood int
	// Program is the requested program.
	Program trace.ProgramID
	// Seconds is the modelled request latency.
	Seconds float64
	// Hit reports a peer-served request.
	Hit bool
}

// LatencySummary is a merged quantile view of the collector's digests.
type LatencySummary struct {
	Count              uint64
	SumSeconds         float64
	P50, P95, P99      float64
	MinSeconds, MaxSec float64
}

// Collector taps the engine's Collector seam: it prices every segment
// request through a LatencyModel and accumulates per-neighborhood
// counters and t-digests (merged into system-wide percentiles at
// scrape time), plus a lossy ring of recent samples. It is strictly
// observational — attaching it never changes engine results (pinned by
// TestTelemetryIsObservational) — and hot-path-safe: observations
// tally in worker-local memory and publish in flushBatch-sized
// batches, so the per-event cost is a table increment and some
// arithmetic. A live scrape reads the last published state (stale by
// at most flushBatch events per shard); call Flush on a quiescent
// engine for an exact view.
type Collector struct {
	model LatencyModel

	// Hot-path pricing constants, predigested from the model so a
	// segment event costs multiplies instead of divides: service times
	// in float64 nanoseconds and the server capacity as an inverse.
	coaxServiceNs   float64
	serverServiceNs float64
	invServerCap    float64
	maxUtil         float64

	shards []collectorShard
	recent *Ring[Sample]
}

// collectorShard is one neighborhood's slice of the collector. The
// hot path tallies observations in worker-local pending tables —
// plain arrays and integers only the owning shard worker touches, no
// locks, no atomics — and folds them into the published digests and
// counters under the mutex once per flushBatch events. A scrape locks
// the mutex and reads the published state, which therefore lags the
// hot path by at most flushBatch events per shard (exact after
// Flush). This batching is what keeps the collector inside its
// Submit-path budget: per event the engine pays a table increment and
// a few arithmetic ops, never a lock or a cross-core cache-line
// bounce, and a fold costs one digest point per distinct value.
type collectorShard struct {
	// Worker-local pending state: owned by the shard worker, invisible
	// to scrapes until flushed.
	pendSessions   uint32
	pendFirstFetch uint32

	// tick phases the recent-ring sampling; worker-local too.
	tick uint32

	// coaxCap/invCoaxCap is the coax capacity pending samples are
	// priced under, as an inverse so utilization is a multiply. It
	// changes only on a disruption, which flushes the pending samples
	// first.
	coaxCap    units.BitRate
	invCoaxCap float64

	pendHit  loadTally
	pendMiss loadTally

	// mu guards everything below: the published digests and counters a
	// scrape reads.
	mu         sync.Mutex
	hit        *TDigest
	miss       *TDigest
	sessions   uint64
	hits       uint64
	misses     uint64
	firstFetch uint64

	_ [40]byte // keep neighboring shards off shared cache lines
}

// flushBatch is the pending-buffer flush threshold per shard: how many
// segment events accumulate worker-locally before one mutex-guarded
// fold into the published digests. It bounds scrape staleness and
// amortizes synchronization ~three orders of magnitude.
const flushBatch = 1024

// loadTally counts a shard's pending samples by the loads that price
// them — coax load, plus server load for misses — in a small
// open-addressing table (a zero count marks a free slot). Broadcasts
// come in whole streams and the server reading changes once an hour,
// so a flush batch holds a few dozen distinct load pairs: the hot path
// pays one increment per sample, and a flush prices and digests each
// distinct pair once, as a weighted point.
type loadTally struct {
	n     int    // distinct load pairs held
	total uint64 // samples held
	slots [tallySlots]struct {
		coax, server units.BitRate
		count        uint64
	}
}

// tallySlots sizes a tally; a shard flushes once either tally holds
// tallySlots/2 distinct load pairs, so probes stay short.
const (
	tallyBits  = 7
	tallySlots = 1 << tallyBits
)

// add counts one sample at the given loads and reports whether the
// tally is full.
func (t *loadTally) add(coax, server units.BitRate) bool {
	const fib = 0x9E3779B97F4A7C15 // Fibonacci hashing multiplier
	i := (uint64(coax)*fib ^ uint64(server)) * fib >> (64 - tallyBits)
	for t.slots[i].count != 0 && (t.slots[i].coax != coax || t.slots[i].server != server) {
		i = (i + 1) % tallySlots
	}
	if t.slots[i].count == 0 {
		t.slots[i].coax, t.slots[i].server = coax, server
		t.n++
	}
	t.slots[i].count++
	t.total++
	return t.n >= tallySlots/2
}

// drain folds the tally into d, one weighted point per distinct load
// pair priced by price, in slot order (deterministic for a given
// sample sequence), and empties it.
func (t *loadTally) drain(d *TDigest, price func(coax, server units.BitRate) float64) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if sl := &t.slots[i]; sl.count != 0 {
			d.AddN(price(sl.coax, sl.server), sl.count)
			sl.count = 0
		}
	}
	t.n, t.total = 0, 0
}

// RecentRingSize bounds the recent-sample series the collector keeps.
const RecentRingSize = 1024

// RecentSampleStride is the recent-ring sampling rate: each shard
// records every stride-th segment event. The ring is a lossy debugging
// series, not an accounting structure (the digests and counters see
// every event); sampling keeps the hot path free of a per-event heap
// allocation and a globally contended ring-head update.
const RecentSampleStride = 64

// NewCollector returns a collector for an engine with the given shard
// count (core.System.Shards()). The zero LatencyModel selects
// DefaultLatencyModel field by field.
func NewCollector(model LatencyModel, shards int) (*Collector, error) {
	model = model.withDefaults()
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		return nil, fmt.Errorf("telemetry: collector needs a positive shard count, got %d", shards)
	}
	c := &Collector{
		model:           model,
		coaxServiceNs:   float64(model.CoaxService),
		serverServiceNs: float64(model.ServerService),
		invServerCap:    1 / float64(model.ServerCapacity),
		maxUtil:         model.MaxUtilization,
		shards:          make([]collectorShard, shards),
		recent:          NewRing[Sample](RecentRingSize),
	}
	for i := range c.shards {
		c.shards[i].hit = NewTDigest(DefaultCompression)
		c.shards[i].miss = NewTDigest(DefaultCompression)
	}
	return c, nil
}

// Model returns the resolved latency model.
func (c *Collector) Model() LatencyModel { return c.model }

// ObserveSession implements core.Collector.
func (c *Collector) ObserveSession(nb int, p trace.ProgramID, at time.Duration) {
	c.shards[nb].pendSessions++
}

// ObserveSegment implements core.Collector: tally the request by the
// loads that price it in the shard's worker-local pending state; the
// flush prices it. Outside a flush nothing here locks or shares a
// cache line with another shard; the sampled recent ring is the only
// cross-shard touch.
func (c *Collector) ObserveSegment(ev core.SegmentEvent) {
	sh := &c.shards[ev.Neighborhood]
	if ev.CoaxCapacity != sh.coaxCap {
		c.flush(sh) // price what is pending under the old capacity
		sh.coaxCap = ev.CoaxCapacity
		if ev.CoaxCapacity > 0 {
			sh.invCoaxCap = 1 / float64(ev.CoaxCapacity)
		} else {
			sh.invCoaxCap = 0
		}
	}
	hit := ev.Hit()
	var full bool
	if hit {
		full = sh.pendHit.add(ev.CoaxBusy, 0)
	} else {
		full = sh.pendMiss.add(ev.CoaxBusy, ev.ServerRate)
		if ev.FirstFetch {
			sh.pendFirstFetch++
		}
	}

	sh.tick++
	if sh.tick%RecentSampleStride == 0 {
		c.recent.Append(Sample{
			At:           ev.At,
			Neighborhood: ev.Neighborhood,
			Program:      ev.Program,
			Seconds:      c.price(sh, ev.CoaxBusy, ev.ServerRate, !hit),
			Hit:          hit,
		})
	}

	if full || sh.pendHit.total+sh.pendMiss.total >= flushBatch {
		c.flush(sh)
	}
}

// price is the M/M/1 inflation of LatencyModel.Latency for a request
// at the given coax and (for a miss) server loads, in seconds, computed
// in float64 nanoseconds with predigested inverse capacities.
func (c *Collector) price(sh *collectorShard, coax, server units.BitRate, miss bool) float64 {
	rho := float64(coax) * sh.invCoaxCap
	if rho > c.maxUtil {
		rho = c.maxUtil
	} else if rho < 0 {
		rho = 0
	}
	ns := c.coaxServiceNs / (1 - rho)
	if miss {
		rhoS := float64(server) * c.invServerCap
		if rhoS > c.maxUtil {
			rhoS = c.maxUtil
		} else if rhoS < 0 {
			rhoS = 0
		}
		ns += c.serverServiceNs / (1 - rhoS)
	}
	return ns * 1e-9
}

// flush prices the shard's pending samples and folds them into its
// published digests and counters. Called by the owning shard worker
// when the pending tallies fill or the coax capacity changes, and by
// Flush on a quiescent engine.
func (c *Collector) flush(sh *collectorShard) {
	sh.mu.Lock()
	sh.hits += sh.pendHit.total
	sh.misses += sh.pendMiss.total
	sh.pendHit.drain(sh.hit, func(coax, server units.BitRate) float64 { return c.price(sh, coax, server, false) })
	sh.pendMiss.drain(sh.miss, func(coax, server units.BitRate) float64 { return c.price(sh, coax, server, true) })
	sh.firstFetch += uint64(sh.pendFirstFetch)
	sh.sessions += uint64(sh.pendSessions)
	sh.mu.Unlock()
	sh.pendFirstFetch = 0
	sh.pendSessions = 0
}

// Flush publishes every pending observation, making scrapes exact.
// The pending buffers are worker-local, so Flush must only run while
// the engine is quiescent — between Submit/SubmitBatch calls or after
// Close. The serve daemon calls it at checkpoint and batch boundaries
// and at shutdown.
func (c *Collector) Flush() {
	for i := range c.shards {
		c.flush(&c.shards[i])
	}
}

// Kind selects one of the collector's latency populations.
type Kind int

// Latency populations.
const (
	// All covers every segment request.
	All Kind = iota
	// Hits covers peer-served requests (coax delay only).
	Hits
	// Misses covers server-served requests (coax + server delay).
	Misses
)

// Latency merges the per-neighborhood digests of the given population
// into one system-wide summary (All merges the hit and miss digests,
// which partition the requests exactly). Mergeability is the
// t-digest's defining property; the merge order (neighborhood index,
// hits before misses) is fixed, so repeated calls on quiesced state
// are identical.
func (c *Collector) Latency(kind Kind) LatencySummary {
	merged := NewTDigest(DefaultCompression)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if kind == All || kind == Hits {
			merged.Merge(sh.hit)
		}
		if kind == All || kind == Misses {
			merged.Merge(sh.miss)
		}
		sh.mu.Unlock()
	}
	if merged.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:      merged.Count(),
		SumSeconds: merged.Sum(),
		P50:        merged.Quantile(0.50),
		P95:        merged.Quantile(0.95),
		P99:        merged.Quantile(0.99),
		MinSeconds: merged.Quantile(0),
		MaxSec:     merged.Quantile(1),
	}
}

// Sessions returns sessions observed (published as of the last flush),
// summed across shards.
func (c *Collector) Sessions() uint64 {
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.sessions
		sh.mu.Unlock()
	}
	return n
}

// Segments returns segment requests observed (published as of the last
// flush), summed across shards — hits and misses partition the
// requests exactly.
func (c *Collector) Segments() uint64 {
	var n uint64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.hits + sh.misses
		sh.mu.Unlock()
	}
	return n
}

// Recent returns the lossy recent-sample series, oldest first.
func (c *Collector) Recent() []Sample { return c.recent.Snapshot() }

// WriteMetrics implements Source: the latency summaries and the
// collector's own sample accounting.
func (c *Collector) WriteMetrics(w *Writer) {
	for _, fam := range []struct {
		kind Kind
		name string
		help string
	}{
		{All, "vodsim_request_latency_seconds", "Modelled per-request latency (coax + server queueing delay), all segment requests."},
		{Hits, "vodsim_hit_latency_seconds", "Modelled latency of peer-served (cache hit) segment requests."},
		{Misses, "vodsim_miss_latency_seconds", "Modelled latency of server-served (cache miss) segment requests."},
	} {
		s := c.Latency(fam.kind)
		w.Summary(fam.name, fam.help, Quantiles{
			Count: s.Count,
			Sum:   s.SumSeconds,
			P:     map[float64]float64{0.5: s.P50, 0.95: s.P95, 0.99: s.P99},
		})
	}
	w.Counter("vodsim_collector_sessions_total", "Sessions observed by the telemetry collector.", float64(c.Sessions()))
	w.Counter("vodsim_collector_samples_total", "Latency samples recorded by the telemetry collector.", float64(c.Segments()))
	w.Counter("vodsim_collector_ring_dropped_total", "Recent-sample ring entries overwritten before a scrape (lossy by design).", float64(c.recent.Dropped()))
}

// Collector implements core.Collector.
var _ core.Collector = (*Collector)(nil)
