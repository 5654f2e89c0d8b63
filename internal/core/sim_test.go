package core

import (
	"testing"
	"time"

	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// tinyTrace builds a trace with explicit records and program lengths.
func tinyTrace(lengths map[trace.ProgramID]time.Duration, recs ...trace.Record) *trace.Trace {
	tr := trace.New()
	for p, l := range lengths {
		tr.ProgramLengths[p] = l
	}
	for _, r := range recs {
		tr.Append(r)
	}
	tr.Sort()
	return tr
}

func oneNeighborhoodConfig(strategy Strategy) Config {
	return Config{
		Topology: hfc.Config{
			NeighborhoodSize: 100,
			PerPeerStorage:   10 * units.GB,
		},
		Strategy: strategy,
	}
}

func TestSimulationFirstMissThenHitImmediate(t *testing.T) {
	// Paper model: the admitting session streams from the server while
	// peers are seeded; the next session hits.
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: 10 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 10 * time.Minute},
		trace.Record{User: 2, Program: 1, Start: time.Hour, Duration: 10 * time.Minute},
	)
	res, err := Run(oneNeighborhoodConfig(StrategyLRU), tr)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MissFirstFetch != 2 || c.Hits != 2 {
		t.Errorf("counters = %+v, want 2 first-fetch misses and 2 hits", c)
	}
	wantBits := 2 * int64(units.StreamRate.BytesIn(5*time.Minute)) * 8
	if res.ServerBits != wantBits {
		t.Errorf("server bits = %d, want %d", res.ServerBits, wantBits)
	}
}

func TestSimulationFirstMissThenHit(t *testing.T) {
	// One 10-minute program; user 1 watches fully at t=0, user 2 at t=1h.
	// Broadcast-fill mode: segments appear in the cache as they are
	// broadcast.
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: 10 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 10 * time.Minute},
		trace.Record{User: 2, Program: 1, Start: time.Hour, Duration: 10 * time.Minute},
	)
	cfg := oneNeighborhoodConfig(StrategyLRU)
	cfg.Fill = FillOnBroadcast
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Sessions != 2 || c.SegmentRequests != 4 {
		t.Fatalf("sessions/segments = %d/%d, want 2/4", c.Sessions, c.SegmentRequests)
	}
	// First session: program admitted at start, both segments unplaced
	// misses that fill the cache. Second session: both hits.
	if c.MissUnplaced != 2 || c.Fills != 2 || c.Hits != 2 {
		t.Errorf("counters = %+v, want 2 unplaced misses, 2 fills, 2 hits", c)
	}
	// Server transferred exactly the two missed segments.
	wantBits := 2 * int64(units.StreamRate.BytesIn(5*time.Minute)) * 8
	if res.ServerBits != wantBits {
		t.Errorf("server bits = %d, want %d", res.ServerBits, wantBits)
	}
	// Demand saw all four segments.
	if res.DemandBits != 2*wantBits {
		t.Errorf("demand bits = %d, want %d", res.DemandBits, 2*wantBits)
	}
	if res.Neighborhoods != 1 {
		t.Errorf("neighborhoods = %d, want 1", res.Neighborhoods)
	}
}

func TestSimulationPartialLastSegmentNotFilled(t *testing.T) {
	// User watches 7 of 10 minutes: segment 1 broadcast is partial and
	// must not fill the cache.
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: 10 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 7 * time.Minute},
		trace.Record{User: 2, Program: 1, Start: time.Hour, Duration: 10 * time.Minute},
	)
	cfg := oneNeighborhoodConfig(StrategyLRU)
	cfg.Fill = FillOnBroadcast
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	// Session 1: seg0 miss+fill, seg1 partial miss (no fill).
	// Session 2: seg0 hit, seg1 miss+fill.
	if c.Fills != 2 {
		t.Errorf("fills = %d, want 2", c.Fills)
	}
	if c.Hits != 1 {
		t.Errorf("hits = %d, want 1", c.Hits)
	}
	if c.MissUnplaced != 3 {
		t.Errorf("unplaced misses = %d, want 3", c.MissUnplaced)
	}
}

func TestSimulationUncachedProgramTooBig(t *testing.T) {
	// Cache capacity 2 peers x 1 GB = 2 GB; a 60-minute program
	// (~3.6 GB) can never be admitted: every request is MissNotCached.
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: time.Hour},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 10 * time.Minute},
		trace.Record{User: 2, Program: 1, Start: time.Hour, Duration: 10 * time.Minute},
	)
	cfg := Config{
		Topology: hfc.Config{NeighborhoodSize: 2, PerPeerStorage: units.GB},
		Strategy: StrategyLRU,
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Hits != 0 || res.Counters.MissNotCached != 4 {
		t.Errorf("counters = %+v, want 4 not-cached misses", res.Counters)
	}
	if res.ServerBits != res.DemandBits {
		t.Error("server should carry all traffic when nothing caches")
	}
}

func TestSimulationPeerBusyTriggersMiss(t *testing.T) {
	// Program 1 is 5 minutes (1 segment) held by one peer. Three
	// overlapping viewers: the serving peer has 2 stream slots, so the
	// third concurrent request must be a peer-busy miss.
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: 5 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 5 * time.Minute},
		trace.Record{User: 2, Program: 1, Start: 10 * time.Minute, Duration: 5 * time.Minute},
		trace.Record{User: 3, Program: 1, Start: 10*time.Minute + 30*time.Second, Duration: 4 * time.Minute},
		trace.Record{User: 4, Program: 1, Start: 11 * time.Minute, Duration: 4 * time.Minute},
	)
	res, err := Run(oneNeighborhoodConfig(StrategyLRU), tr)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	// The serving peer has two stream slots. Depending on which
	// (shuffled) box stores the segment, one slot may also be held by
	// that subscriber's own concurrent viewing, so one or two of the
	// three overlapping requests are peer-busy misses — never zero.
	if c.MissPeerBusy < 1 || c.MissPeerBusy > 2 {
		t.Errorf("peer-busy misses = %d, want 1 or 2 (counters %+v)", c.MissPeerBusy, c)
	}
	if c.Hits+c.MissPeerBusy != 3 {
		t.Errorf("hits (%d) + busy (%d) = %d, want 3", c.Hits, c.MissPeerBusy, c.Hits+c.MissPeerBusy)
	}
}

func TestSimulationPeerLimitAblation(t *testing.T) {
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: 5 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 5 * time.Minute},
		trace.Record{User: 2, Program: 1, Start: 10 * time.Minute, Duration: 5 * time.Minute},
		trace.Record{User: 3, Program: 1, Start: 10*time.Minute + 30*time.Second, Duration: 4 * time.Minute},
		trace.Record{User: 4, Program: 1, Start: 11 * time.Minute, Duration: 4 * time.Minute},
	)
	cfg := oneNeighborhoodConfig(StrategyLRU)
	cfg.DisablePeerStreamLimit = true
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MissPeerBusy != 0 {
		t.Errorf("peer-busy misses = %d with limit disabled", res.Counters.MissPeerBusy)
	}
	if res.Counters.Hits != 3 {
		t.Errorf("hits = %d, want 3", res.Counters.Hits)
	}
}

func TestSimulationCacheFillAblation(t *testing.T) {
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: 10 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 10 * time.Minute},
		trace.Record{User: 2, Program: 1, Start: time.Hour, Duration: 10 * time.Minute},
	)
	cfg := oneNeighborhoodConfig(StrategyLRU)
	cfg.Fill = FillOnBroadcast
	cfg.DisableCacheFill = true
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Fills != 0 || res.Counters.Hits != 0 {
		t.Errorf("counters = %+v, want no fills and no hits", res.Counters)
	}
}

func TestSimulationEvictionFreesPeerStorage(t *testing.T) {
	// Two 10-minute programs (604.5 MB each), cache fits only one
	// (capacity 2 x 0.4 GB = 0.8 GB). LRU alternation evicts.
	tr := tinyTrace(
		map[trace.ProgramID]time.Duration{1: 10 * time.Minute, 2: 10 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 0, Duration: 10 * time.Minute},
		trace.Record{User: 2, Program: 2, Start: time.Hour, Duration: 10 * time.Minute},
		trace.Record{User: 1, Program: 1, Start: 2 * time.Hour, Duration: 10 * time.Minute},
	)
	cfg := Config{
		Topology: hfc.Config{NeighborhoodSize: 2, PerPeerStorage: 400 * units.MB},
		Strategy: StrategyLRU,
	}
	sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitBatch(tr.Records); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Admissions: p1, then p2 evicts p1, then p1 evicts p2. All misses.
	if res.Counters.Hits != 0 {
		t.Errorf("hits = %d, want 0", res.Counters.Hits)
	}
	// After the run only one program's segments are stored.
	stored := sys.Server(0).StoredBytes()
	maxOne := units.StreamRate.BytesIn(10 * time.Minute)
	if stored > maxOne {
		t.Errorf("stored = %v, want <= one program (%v)", stored, maxOne)
	}
}

func TestSimulationErrors(t *testing.T) {
	tr := tinyTrace(map[trace.ProgramID]time.Duration{1: 5 * time.Minute})
	if _, err := Run(oneNeighborhoodConfig(StrategyLRU), tr); err == nil {
		t.Error("expected error for empty trace")
	}
	if _, err := Run(oneNeighborhoodConfig(StrategyLRU), nil); err == nil {
		t.Error("expected error for nil trace")
	}
	unsorted := trace.New()
	unsorted.Append(trace.Record{User: 1, Program: 1, Start: time.Hour, Duration: time.Minute})
	unsorted.Append(trace.Record{User: 1, Program: 1, Start: 0, Duration: time.Minute})
	if _, err := Run(oneNeighborhoodConfig(StrategyLRU), unsorted); err == nil {
		t.Error("expected error for unsorted trace")
	}
}

func TestSimulationDeterministic(t *testing.T) {
	cfg := synth.TestConfig()
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(Config{
			Topology: hfc.Config{NeighborhoodSize: 100, PerPeerStorage: 5 * units.GB},
			Strategy: StrategyLFU,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Counters != b.Counters {
		t.Errorf("counters differ:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if a.ServerBits != b.ServerBits || a.Server.Mean != b.Server.Mean {
		t.Error("server metrics differ across identical runs")
	}
}

func TestSimulationStrategyOrdering(t *testing.T) {
	// On a synthetic workload the oracle should beat (or tie) LFU and
	// LRU in total server traffic; LFU should not lose badly to LRU.
	cfg := synth.TestConfig()
	cfg.Users = 600
	cfg.Days = 4
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s Strategy) int64 {
		res, err := Run(Config{
			Topology: hfc.Config{NeighborhoodSize: 300, PerPeerStorage: units.GB},
			Strategy: s,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.ServerBits
	}
	oracle := run(StrategyOracle)
	lfu := run(StrategyLFU)
	lru := run(StrategyLRU)
	if oracle > lfu {
		t.Errorf("oracle server bits %d > lfu %d", oracle, lfu)
	}
	if lfu > lru+lru/10 {
		t.Errorf("lfu server bits %d much worse than lru %d", lfu, lru)
	}
}

func TestSimulationSavingsGrowWithCache(t *testing.T) {
	cfg := synth.TestConfig()
	cfg.Users = 600
	cfg.Days = 4
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(storage units.ByteSize) float64 {
		res, err := Run(Config{
			Topology: hfc.Config{NeighborhoodSize: 300, PerPeerStorage: storage},
			Strategy: StrategyLFU,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.ServerBits)
	}
	small := run(500 * units.MB)
	big := run(5 * units.GB)
	if big >= small {
		t.Errorf("10x cache did not reduce server traffic: %v vs %v", big, small)
	}
}

func TestSimulationGlobalStrategy(t *testing.T) {
	cfg := synth.TestConfig()
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lag := range []time.Duration{0, 30 * time.Minute} {
		res, err := Run(Config{
			Topology:  hfc.Config{NeighborhoodSize: 100, PerPeerStorage: 2 * units.GB},
			Strategy:  StrategyGlobalLFU,
			GlobalLag: lag,
		}, tr)
		if err != nil {
			t.Fatalf("lag %v: %v", lag, err)
		}
		if res.Counters.Sessions == 0 || res.Counters.SegmentRequests == 0 {
			t.Errorf("lag %v: empty counters %+v", lag, res.Counters)
		}
	}
}

func TestSimulationCoaxTrafficTracked(t *testing.T) {
	cfg := synth.TestConfig()
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Topology: hfc.Config{NeighborhoodSize: 100, PerPeerStorage: 2 * units.GB},
		Strategy: StrategyLFU,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coax.Mean <= 0 {
		t.Error("coax traffic not tracked")
	}
	if res.Counters.CoaxOverloads != 0 {
		t.Errorf("unexpected coax overloads: %d", res.Counters.CoaxOverloads)
	}
	// Conservation: server traffic can never exceed demand.
	if res.ServerBits > res.DemandBits {
		t.Error("server bits exceed demand bits")
	}
}

func TestCountersHelpers(t *testing.T) {
	c := Counters{Hits: 3, MissNotCached: 1, MissUnplaced: 1, MissPeerBusy: 1, SegmentRequests: 6}
	if c.Misses() != 3 {
		t.Errorf("Misses() = %d, want 3", c.Misses())
	}
	if got := c.HitRatio(); got != 0.5 {
		t.Errorf("HitRatio() = %v, want 0.5", got)
	}
	if (Counters{}).HitRatio() != 0 {
		t.Error("empty HitRatio should be 0")
	}
}

// TestSimulationTraceUnmodified ensures a run never mutates its input
// trace (runs share traces across sweeps).
func TestSimulationTraceUnmodified(t *testing.T) {
	scfg := synth.TestConfig()
	tr, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Clone()
	if _, err := Run(Config{
		Topology: hfc.Config{NeighborhoodSize: 200, PerPeerStorage: units.GB},
		Strategy: StrategyOracle,
	}, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != before.Len() {
		t.Fatal("record count changed")
	}
	for i := range tr.Records {
		if tr.Records[i] != before.Records[i] {
			t.Fatalf("record %d mutated", i)
		}
	}
	for p, l := range before.ProgramLengths {
		if tr.ProgramLengths[p] != l {
			t.Fatalf("program %d length mutated", p)
		}
	}
}
