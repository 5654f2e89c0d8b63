package telemetry

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

func collectorTestTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	opts := synth.TestConfig()
	opts.Seed = seed
	tr, err := synth.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func collectorTestConfig(parallelism int) core.Config {
	return core.Config{
		Topology: hfc.Config{
			NeighborhoodSize: 100,
			PerPeerStorage:   2 * units.GB,
		},
		Fill:        core.FillOnBroadcast,
		WarmupDays:  1,
		Parallelism: parallelism,
	}
}

// runWithCollector drives tr through SubmitBatch with the given
// collector attached (nil for the baseline) and returns the Result.
func runWithCollector(t *testing.T, cfg core.Config, tr *trace.Trace, col core.Collector) *core.Result {
	t.Helper()
	sys, err := core.NewSystem(cfg, core.WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if col != nil {
		sys.SetCollector(col)
	}
	const chunk = 500
	for start := 0; start < len(tr.Records); start += chunk {
		end := start + chunk
		if end > len(tr.Records) {
			end = len(tr.Records)
		}
		if err := sys.SubmitBatch(tr.Records[start:end]); err != nil {
			t.Fatalf("submit batch at %d: %v", start, err)
		}
	}
	res, err := sys.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The engine is quiescent after Close; publish buffered
	// observations so the assertions below see exact totals.
	if c, ok := col.(*Collector); ok && c != nil {
		c.Flush()
	}
	return res
}

func normalizeResult(res *core.Result) *core.Result {
	res.Config.Parallelism = 0
	return res
}

// TestTelemetryIsObservational is the tentpole's non-negotiable
// acceptance test: attaching a Collector must not change engine results
// by a single bit, at any parallelism — telemetry observes copies of
// already-computed values and the engine never reads collector state.
// It also pins the collector's own determinism: because every
// SegmentEvent input is shard-local, the latency percentiles and
// counters are identical at every parallelism too.
func TestTelemetryIsObservational(t *testing.T) {
	tr := collectorTestTrace(t, 1)
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}

	want := normalizeResult(runWithCollector(t, collectorTestConfig(1), tr, nil))

	var refSummary *LatencySummary
	var refSegments uint64
	for _, par := range levels {
		col, err := NewCollector(LatencyModel{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := normalizeResult(runWithCollector(t, collectorTestConfig(par), tr, col))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("par %d: result with collector differs from collector-free baseline", par)
		}

		if col.Segments() != uint64(got.Counters.SegmentRequests) {
			t.Errorf("par %d: collector saw %d segments, engine served %d",
				par, col.Segments(), got.Counters.SegmentRequests)
		}
		if col.Sessions() != uint64(got.Counters.Sessions) {
			t.Errorf("par %d: collector saw %d sessions, engine started %d",
				par, col.Sessions(), got.Counters.Sessions)
		}
		hits := col.Latency(Hits).Count + col.Latency(Misses).Count
		if all := col.Latency(All).Count; hits != all {
			t.Errorf("par %d: hit+miss digests hold %d samples, all-digest %d", par, hits, all)
		}

		s := col.Latency(All)
		if refSummary == nil {
			s := s
			refSummary, refSegments = &s, col.Segments()
			continue
		}
		if s != *refSummary || col.Segments() != refSegments {
			t.Errorf("par %d: collector state differs from par %d:\n  %+v\nvs %+v",
				par, levels[0], s, *refSummary)
		}
	}
}

// TestCollectorLatencyShape pins the model's two-population shape: hits
// pay only coax delay, misses add the server stage, so the miss
// population must sit strictly above the hit population.
func TestCollectorLatencyShape(t *testing.T) {
	tr := collectorTestTrace(t, 2)
	col, err := NewCollector(LatencyModel{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	runWithCollector(t, collectorTestConfig(4), tr, col)

	hit, miss := col.Latency(Hits), col.Latency(Misses)
	if hit.Count == 0 || miss.Count == 0 {
		t.Fatalf("degenerate workload: %d hits, %d misses", hit.Count, miss.Count)
	}
	model := col.Model()
	if hit.MinSeconds < model.CoaxService.Seconds() {
		t.Errorf("hit min %gs below base coax service %v", hit.MinSeconds, model.CoaxService)
	}
	if miss.MinSeconds < (model.CoaxService + model.ServerService).Seconds() {
		t.Errorf("miss min %gs below base coax+server service", miss.MinSeconds)
	}
	if miss.P50 <= hit.P50 {
		t.Errorf("miss p50 %gs not above hit p50 %gs", miss.P50, hit.P50)
	}
}

// TestCollectorWriteMetrics checks the scrape output carries the
// latency summaries with the quantiles the issue promises.
func TestCollectorWriteMetrics(t *testing.T) {
	tr := collectorTestTrace(t, 1)
	col, err := NewCollector(LatencyModel{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	runWithCollector(t, collectorTestConfig(2), tr, col)

	var b strings.Builder
	w := NewWriter(&b)
	col.WriteMetrics(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE vodsim_request_latency_seconds summary",
		`vodsim_request_latency_seconds{quantile="0.5"}`,
		`vodsim_request_latency_seconds{quantile="0.95"}`,
		`vodsim_request_latency_seconds{quantile="0.99"}`,
		"vodsim_request_latency_seconds_sum",
		"vodsim_request_latency_seconds_count",
		"vodsim_hit_latency_seconds",
		"vodsim_miss_latency_seconds",
		"vodsim_collector_sessions_total",
		"vodsim_collector_samples_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape output missing %q", want)
		}
	}
}

func TestLatencyModelValidate(t *testing.T) {
	if err := (LatencyModel{}).Validate(); err != nil {
		t.Errorf("zero model (all defaults) invalid: %v", err)
	}
	bad := []LatencyModel{
		{CoaxService: -time.Millisecond},
		{ServerService: -time.Millisecond},
		{ServerCapacity: -units.Mbps},
		{MaxUtilization: 1.5},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestLatencyModelClampsUtilization(t *testing.T) {
	m := DefaultLatencyModel()
	ev := core.SegmentEvent{
		Outcome:      core.MissNotCached,
		CoaxBusy:     10 * m.ServerCapacity, // absurd overload
		CoaxCapacity: m.ServerCapacity,
		ServerRate:   10 * m.ServerCapacity,
	}
	coax, server := m.Latency(ev)
	maxCoax := time.Duration(float64(m.CoaxService) / (1 - m.MaxUtilization))
	maxServer := time.Duration(float64(m.ServerService) / (1 - m.MaxUtilization))
	if coax != maxCoax || server != maxServer {
		t.Errorf("overload latency (%v, %v), want clamped (%v, %v)", coax, server, maxCoax, maxServer)
	}

	hit := core.SegmentEvent{Outcome: core.ServedByPeer, CoaxCapacity: m.ServerCapacity}
	if _, server := m.Latency(hit); server != 0 {
		t.Errorf("hit has server delay %v, want 0", server)
	}
}

func TestNewCollectorRejectsBadInputs(t *testing.T) {
	if _, err := NewCollector(LatencyModel{}, 0); err == nil {
		t.Error("zero shard count accepted")
	}
	if _, err := NewCollector(LatencyModel{MaxUtilization: 2}, 4); err == nil {
		t.Error("invalid model accepted")
	}
}

// perSampleCollector tees every event into the collector under test
// and prices each segment on its own through the model, as the
// reference for the collector's batched pricing.
type perSampleCollector struct {
	col        *Collector
	hit, miss  []float64
	capacities map[units.BitRate]bool
}

func (c *perSampleCollector) ObserveSession(nb int, p trace.ProgramID, at time.Duration) {
	c.col.ObserveSession(nb, p, at)
}

func (c *perSampleCollector) ObserveSegment(ev core.SegmentEvent) {
	m := c.col.Model()
	// LatencyModel.Latency's pricing, without its truncation to whole
	// nanoseconds.
	ns := float64(m.CoaxService) / (1 - utilization(ev.CoaxBusy, ev.CoaxCapacity, m.MaxUtilization))
	if !ev.Hit() {
		ns += float64(m.ServerService) / (1 - utilization(ev.ServerRate, m.ServerCapacity, m.MaxUtilization))
	}
	if ev.Hit() {
		c.hit = append(c.hit, ns*1e-9)
	} else {
		c.miss = append(c.miss, ns*1e-9)
	}
	c.capacities[ev.CoaxCapacity] = true
	c.col.ObserveSegment(ev)
}

// checkAgainstPerSample compares the collector's summaries with the
// reference's samples: exact counts, minima and maxima (to the last
// bits of float rounding), sums to 1e-9 relative, and p50/p95/p99 no
// more than rankTol further in rank from the exact quantile than a
// digest fed each sample on its own.
func checkAgainstPerSample(t *testing.T, ref *perSampleCollector) {
	const rankTol = 0.005
	t.Helper()
	ref.col.Flush()
	within := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }
	for _, pop := range []struct {
		kind    Kind
		name    string
		samples []float64
	}{
		{Hits, "hits", ref.hit},
		{Misses, "misses", ref.miss},
		{All, "all", append(append([]float64(nil), ref.hit...), ref.miss...)},
	} {
		got := ref.col.Latency(pop.kind)
		s := slices.Clone(pop.samples)
		slices.Sort(s)
		if got.Count != uint64(len(s)) {
			t.Errorf("%s: count %d, want %d", pop.name, got.Count, len(s))
			continue
		}
		if len(s) == 0 {
			t.Fatalf("%s: no samples", pop.name)
		}
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		if !within(got.MinSeconds, s[0], 1e-12) || !within(got.MaxSec, s[len(s)-1], 1e-12) {
			t.Errorf("%s: min/max %g/%g, want %g/%g", pop.name, got.MinSeconds, got.MaxSec, s[0], s[len(s)-1])
		}
		if !within(got.SumSeconds, sum, 1e-9) {
			t.Errorf("%s: sum %.12g, want %.12g", pop.name, got.SumSeconds, sum)
		}
		// The digest is lossy however it is fed, more so on a
		// distribution of a few discrete prices, so the quantiles are
		// judged in rank space against a digest fed every sample on
		// its own.
		unit := NewTDigest(DefaultCompression)
		for _, v := range pop.samples {
			unit.Add(v)
		}
		for _, q := range []struct {
			q   float64
			got float64
		}{{0.50, got.P50}, {0.95, got.P95}, {0.99, got.P99}} {
			if d, ud := rankDistance(s, q.got, q.q), rankDistance(s, unit.Quantile(q.q), q.q); d > ud+rankTol {
				t.Errorf("%s: p%g = %g sits %.4f from its rank, a per-sample digest's %g sits %.4f (tolerance %g)",
					pop.name, 100*q.q, q.got, d, unit.Quantile(q.q), ud, rankTol)
			}
		}
	}
}

// TestCollectorMatchesPerSamplePricing: the collector tallies pending
// samples by load pair and prices each distinct pair once at flush. On
// an engine run whose coax capacity changes twice, and on a synthetic
// stream with far more distinct loads than a tally holds, that must
// agree with pricing every sample on its own.
func TestCollectorMatchesPerSamplePricing(t *testing.T) {
	t.Run("engine with coax disruptions", func(t *testing.T) {
		tr := collectorTestTrace(t, 1)
		sys, err := core.NewSystem(collectorTestConfig(1), core.WorkloadFromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.ScheduleDisruptions([]core.Disruption{
			{At: 30 * time.Hour, Kind: core.DisruptCoaxCapacity, Neighborhood: -1, CoaxCapacity: 150 * units.Mbps},
			{At: 54 * time.Hour, Kind: core.DisruptCoaxCapacity, Neighborhood: -1, CoaxCapacity: hfc.DefaultCoaxCapacity},
		}); err != nil {
			t.Fatal(err)
		}
		col, err := NewCollector(LatencyModel{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref := &perSampleCollector{col: col, capacities: map[units.BitRate]bool{}}
		sys.SetCollector(ref)
		if err := sys.SubmitBatch(tr.Records); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if len(ref.capacities) < 2 {
			t.Fatalf("events saw coax capacities %v; the disruptions did not take", ref.capacities)
		}
		checkAgainstPerSample(t, ref)
	})
	t.Run("synthetic loads", func(t *testing.T) {
		col, err := NewCollector(LatencyModel{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref := &perSampleCollector{col: col, capacities: map[units.BitRate]bool{}}
		rng := rand.New(rand.NewPCG(1, 2))
		capacity := hfc.DefaultCoaxCapacity
		for i := range 200000 {
			if i%5000 == 0 {
				capacity = units.BitRate(100+rng.IntN(4)*300) * units.Mbps
			}
			ev := core.SegmentEvent{
				Neighborhood: rng.IntN(2),
				CoaxBusy:     units.BitRate(rng.IntN(400)) * 2 * units.Mbps,
				CoaxCapacity: capacity,
				ServerRate:   units.BitRate(rng.IntN(50)) * 10 * units.Mbps,
				Outcome:      core.ServedByPeer,
			}
			if rng.IntN(3) == 0 {
				ev.Outcome = core.MissNotCached
			}
			ref.ObserveSegment(ev)
		}
		checkAgainstPerSample(t, ref)
	})
}

// rankDistance returns how far, in rank, the estimate v of quantile q
// sits from q over the sorted samples s: zero when q falls within the
// span of ranks that v's equal samples cover.
func rankDistance(s []float64, v, q float64) float64 {
	below, _ := slices.BinarySearch(s, v)
	atOrBelow := below
	for atOrBelow < len(s) && s[atOrBelow] == v {
		atOrBelow++
	}
	lo, hi := float64(below)/float64(len(s)), float64(atOrBelow)/float64(len(s))
	return max(lo-q, q-hi, 0)
}
