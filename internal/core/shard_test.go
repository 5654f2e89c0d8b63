package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// shardTestTrace generates the shared small workload for the sharding
// equivalence suite: 400 users over 100-peer neighborhoods = 4 shards.
func shardTestTrace(t *testing.T, seed uint64) *trace.Trace {
	t.Helper()
	opts := synth.TestConfig()
	opts.Seed = seed
	tr, err := synth.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func shardTestConfig(strategy Strategy, fill FillMode, parallelism int) Config {
	return Config{
		Topology: hfc.Config{
			NeighborhoodSize: 100,
			PerPeerStorage:   2 * units.GB,
		},
		Strategy:    strategy,
		Fill:        fill,
		WarmupDays:  1,
		Parallelism: parallelism,
	}
}

// normalizeResult strips the one intentionally parallelism-dependent
// field so bit-identical engine output can be compared across levels.
func normalizeResult(res *Result) *Result {
	res.Config.Parallelism = 0
	return res
}

// runStreaming drives tr through Submit record by record.
func runStreaming(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range tr.Records {
		if err := sys.Submit(rec); err != nil {
			t.Fatalf("submit record %d: %v", i, err)
		}
	}
	res, err := sys.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runBatched drives tr through SubmitBatch in chunks, with a Snapshot
// between chunks to exercise mid-flight flushing.
func runBatched(t *testing.T, cfg Config, tr *trace.Trace, chunk int) *Result {
	t.Helper()
	sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(tr.Records); start += chunk {
		end := start + chunk
		if end > len(tr.Records) {
			end = len(tr.Records)
		}
		if err := sys.SubmitBatch(tr.Records[start:end]); err != nil {
			t.Fatalf("submit batch at %d: %v", start, err)
		}
		sys.Snapshot()
	}
	res, err := sys.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedEngineEquivalence is the determinism contract of the
// sharded engine: for every built-in strategy, fill mode, and seed, the
// batch Run and the Submit-driven online engine produce bit-identical
// Results at parallelism 1 (the serial path), 4, and GOMAXPROCS.
func TestShardedEngineEquivalence(t *testing.T) {
	strategies := []Strategy{StrategyLRU, StrategyLFU, StrategyOracle, StrategyGlobalLFU}
	fills := []FillMode{FillImmediate, FillOnBroadcast}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}

	for seed := uint64(1); seed <= 3; seed++ {
		tr := shardTestTrace(t, seed)
		for _, strat := range strategies {
			for _, fill := range fills {
				var want *Result
				for _, par := range levels {
					cfg := shardTestConfig(strat, fill, par)
					batch, err := Run(cfg, tr)
					if err != nil {
						t.Fatalf("seed %d %v/%v par %d: %v", seed, strat, fill, par, err)
					}
					normalizeResult(batch)
					if want == nil {
						want = batch
					} else if !reflect.DeepEqual(batch, want) {
						t.Errorf("seed %d %v/%v: Run at parallelism %d differs from parallelism %d",
							seed, strat, fill, par, levels[0])
					}
					stream := normalizeResult(runStreaming(t, cfg, tr))
					if !reflect.DeepEqual(stream, want) {
						t.Errorf("seed %d %v/%v: Submit-driven result at parallelism %d differs from batch",
							seed, strat, fill, par)
					}
				}
			}
		}
	}
}

// TestSubmitBatchMatchesSubmit: chunked SubmitBatch ingest (with
// mid-flight snapshots) equals per-record Submit at every parallelism.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	tr := shardTestTrace(t, 1)
	for _, strat := range []Strategy{StrategyLFU, StrategyGlobalLFU} {
		want := normalizeResult(runStreaming(t, shardTestConfig(strat, FillImmediate, 1), tr))
		for _, par := range []int{1, 4} {
			for _, chunk := range []int{1, 97, 1000, len(tr.Records)} {
				cfg := shardTestConfig(strat, FillImmediate, par)
				got := normalizeResult(runBatched(t, cfg, tr, chunk))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v: SubmitBatch(chunk=%d, parallelism=%d) differs from serial Submit",
						strat, chunk, par)
				}
			}
		}
	}
}

// TestGlobalLFULagEpochEquivalence pins the epoch-barrier path: with a
// publication lag, global-LFU shards run concurrently between
// publication instants and must still match the parallelism-1 engine,
// which publishes at the same barriers on one worker, bit for bit.
// (With lag 0 the live feed couples neighborhoods per request and the
// engine serializes, which is equivalence-trivial; the lagged feeds are
// where the barrier logic actually executes.)
func TestGlobalLFULagEpochEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		tr := shardTestTrace(t, seed)
		for _, lag := range []time.Duration{30 * time.Minute, 2 * time.Hour} {
			serialCfg := shardTestConfig(StrategyGlobalLFU, FillImmediate, 1)
			serialCfg.GlobalLag = lag
			want, err := Run(serialCfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			normalizeResult(want)

			parCfg := serialCfg
			parCfg.Parallelism = 4

			// The parallel run must actually take the epoch-coupled path.
			sys, err := NewSystem(parCfg, WorkloadFromTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			if sys.mode != shardsEpochCoupled {
				t.Fatalf("lag %v parallel 4: mode = %d, want epoch-coupled", lag, sys.mode)
			}
			if err := sys.SubmitBatch(tr.Records); err != nil {
				t.Fatal(err)
			}
			got, err := sys.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeResult(got), want) {
				t.Errorf("seed %d lag %v: epoch-coupled parallel result differs from serial", seed, lag)
			}

			// And record-by-record submission drives the same barriers.
			stream := normalizeResult(runStreaming(t, parCfg, tr))
			if !reflect.DeepEqual(stream, want) {
				t.Errorf("seed %d lag %v: streaming epoch-coupled result differs from serial", seed, lag)
			}
		}
	}
}

// TestShardModeSelection: the engine picks the concurrency class from
// the strategy's registered traits and coupling.
func TestShardModeSelection(t *testing.T) {
	tr := shardTestTrace(t, 1)
	w := WorkloadFromTrace(tr)
	cases := []struct {
		name string
		cfg  Config
		want shardMode
	}{
		{"lfu", shardTestConfig(StrategyLFU, FillImmediate, 4), shardsIndependent},
		{"lru", shardTestConfig(StrategyLRU, FillImmediate, 4), shardsIndependent},
		{"oracle", shardTestConfig(StrategyOracle, FillImmediate, 4), shardsIndependent},
		{"global-live", shardTestConfig(StrategyGlobalLFU, FillImmediate, 4), shardsSerialized},
	}
	// A lagged feed couples at every parallelism, serial included, on
	// both of Fig. 13's lags.
	for _, lagged := range []struct {
		par int
		lag time.Duration
	}{{1, 30 * time.Minute}, {4, 30 * time.Minute}, {4, 2 * time.Hour}} {
		cfg := shardTestConfig(StrategyGlobalLFU, FillImmediate, lagged.par)
		cfg.GlobalLag = lagged.lag
		cases = append(cases, struct {
			name string
			cfg  Config
			want shardMode
		}{fmt.Sprintf("global-lagged %v p%d", lagged.lag, lagged.par), cfg, shardsEpochCoupled})
	}

	for _, tc := range cases {
		sys, err := NewSystem(tc.cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sys.mode != tc.want {
			t.Errorf("%s: mode = %d, want %d", tc.name, sys.mode, tc.want)
		}
		if _, err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A custom strategy registered without traits (unknown provenance)
	// serializes; one registered shard-independent runs free.
	if err := RegisterStrategy("shard-test-opaque", perNeighborhood(
		func(Config) (cache.Policy, error) { return lruPolicy(t), nil })); err != nil {
		t.Fatal(err)
	}
	if err := RegisterStrategyTraits("shard-test-independent", perNeighborhood(
		func(Config) (cache.Policy, error) { return lruPolicy(t), nil }), independent); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]shardMode{
		"shard-test-opaque":      shardsSerialized,
		"shard-test-independent": shardsIndependent,
	} {
		cfg := shardTestConfig(0, FillImmediate, 4)
		cfg.StrategyName = name
		sys, err := NewSystem(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sys.mode != want {
			t.Errorf("%s: mode = %d, want %d", name, sys.mode, want)
		}
		if _, err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitBatchAtomicValidation: a bad record anywhere in the batch
// rejects the whole batch before any processing.
func TestSubmitBatchAtomicValidation(t *testing.T) {
	tr := shardTestTrace(t, 1)
	sys, err := NewSystem(shardTestConfig(StrategyLFU, FillImmediate, 4), WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	batch := append([]trace.Record(nil), tr.Records[:10]...)
	batch[7].User = 1 << 30 // not in the population
	err = sys.SubmitBatch(batch)
	if err == nil {
		t.Fatal("expected error for unknown user in batch")
	}
	if !strings.Contains(err.Error(), "record 7") {
		t.Errorf("error %q does not name the offending record", err)
	}
	if m := sys.Snapshot(); m.Submitted != 0 || m.Counters.Sessions != 0 {
		t.Errorf("failed batch left state behind: %+v", m)
	}
	// The engine still accepts the valid prefix afterwards.
	if err := sys.SubmitBatch(tr.Records[:10]); err != nil {
		t.Fatal(err)
	}
	if m := sys.Snapshot(); m.Submitted != 10 {
		t.Errorf("Submitted = %d, want 10", m.Submitted)
	}
	if _, err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPerNeighborhoodBreakdown: the breakdown covers every
// shard and is consistent with the aggregate view.
func TestSnapshotPerNeighborhoodBreakdown(t *testing.T) {
	tr := shardTestTrace(t, 1)
	sys, err := NewSystem(shardTestConfig(StrategyLFU, FillImmediate, 4), WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitBatch(tr.Records); err != nil {
		t.Fatal(err)
	}
	m := sys.Snapshot()
	if len(m.PerNeighborhood) != m.Neighborhoods || m.Neighborhoods != sys.Shards() {
		t.Fatalf("breakdown has %d entries, want %d shards", len(m.PerNeighborhood), sys.Shards())
	}
	var sessions uint64
	var used, capacity units.ByteSize
	var active int
	for i, nb := range m.PerNeighborhood {
		if nb.ID != i {
			t.Errorf("entry %d has ID %d", i, nb.ID)
		}
		if nb.Sessions == 0 {
			t.Errorf("neighborhood %d served no sessions", i)
		}
		if nb.CacheCapacity == 0 {
			t.Errorf("neighborhood %d has no cache capacity", i)
		}
		sessions += nb.Sessions
		used += nb.CacheUsed
		capacity += nb.CacheCapacity
		active += nb.ActiveSessions
	}
	if sessions != m.Counters.Sessions {
		t.Errorf("breakdown sessions sum %d != aggregate %d", sessions, m.Counters.Sessions)
	}
	if used != m.CacheUsed || capacity != m.CacheCapacity {
		t.Errorf("breakdown cache sums (%v/%v) != aggregate (%v/%v)", used, capacity, m.CacheUsed, m.CacheCapacity)
	}
	if active != m.ActiveSessions {
		t.Errorf("breakdown active sum %d != aggregate %d", active, m.ActiveSessions)
	}
	if _, err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadValidation: duplicate subscribers and negative parallelism
// are rejected with clear errors instead of misbehaving downstream.
func TestWorkloadValidation(t *testing.T) {
	w := Workload{Users: []trace.UserID{1, 2, 2, 3}}
	_, err := NewSystem(shardTestConfig(StrategyLFU, FillImmediate, 0), w)
	if err == nil || !strings.Contains(err.Error(), "duplicate subscriber 2") {
		t.Errorf("duplicate subscribers: err = %v, want duplicate-subscriber error", err)
	}

	cfg := shardTestConfig(StrategyLFU, FillImmediate, -1)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "parallelism") {
		t.Errorf("Parallelism -1: err = %v, want parallelism error", err)
	}
	if _, err := NewSystem(cfg, Workload{Users: []trace.UserID{1}}); err == nil {
		t.Error("NewSystem accepted negative parallelism")
	}
}

// effectiveParallelism clamps and defaults as documented.
func TestEffectiveParallelism(t *testing.T) {
	if got := (Config{}).effectiveParallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Config{Parallelism: 3}).effectiveParallelism(); got != 3 {
		t.Errorf("explicit 3 = %d", got)
	}
}
