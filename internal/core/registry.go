package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/hfc"
	"cablevod/internal/segment"
	"cablevod/internal/trace"
)

// PolicyEnv is what a strategy factory can see when building the cache
// policies for one run: the resolved configuration, the built plant, and
// whatever future knowledge the workload supplies (nil for truly online
// runs — offline strategies like the oracle must reject that).
type PolicyEnv struct {
	// Config is the run configuration with defaults applied.
	Config Config

	// Topology is the built cable plant; factories may use it to split
	// shared state per neighborhood (Home, NeighborhoodCount).
	Topology *hfc.Topology

	// Future is the full upcoming request sequence in timestamp order,
	// or nil when the engine is driven online without future knowledge.
	Future []trace.Record

	// Lengths resolves catalog program lengths (never nil when the
	// engine builds the environment; programs absent from the catalog
	// resolve to 0). Size-aware strategies use it to score by stored
	// size.
	Lengths func(p trace.ProgramID) time.Duration

	// coupler is set through Couple by factories whose policies share
	// epoch-synchronizable state.
	coupler ShardCoupler
}

// Couple hands the engine shared strategy state that must be
// synchronized at epoch barriers. A factory calls it (at most once) when
// its per-neighborhood policies share state whose observable changes
// happen only at discrete publication instants — the engine then runs
// shards concurrently between instants and calls Sync at each barrier
// with no policy running. Factories that share per-request-coupled state
// must NOT couple; leaving the registration traits at their zero value
// makes the engine serialize instead.
func (env *PolicyEnv) Couple(c ShardCoupler) { env.coupler = c }

// ShardCoupler is strategy-shared state that couples concurrent
// neighborhood shards and synchronizes at epoch barriers. The engine
// checks SyncNeeded against each record's start time in global order and
// calls Sync before the first record at or past each synchronization
// instant, at every parallelism level, so results stay bit-identical.
type ShardCoupler interface {
	// SyncNeeded reports whether shared state must synchronize before a
	// record at time next is processed.
	SyncNeeded(next time.Duration) bool

	// Sync merges per-shard contributions and republishes shared state
	// as of time now. The engine guarantees no policy runs concurrently.
	Sync(now time.Duration)
}

// StrategyTraits declares how a strategy's per-neighborhood policies may
// be distributed across concurrent shards.
type StrategyTraits struct {
	// ShardIndependent asserts that policies built by this factory for
	// different neighborhoods share no mutable state, so shards may run
	// fully concurrently. The zero value is the safe default: the engine
	// processes records in global order on one goroutine unless the
	// factory couples shared state explicitly (PolicyEnv.Couple).
	ShardIndependent bool
}

// StrategyFactory builds the per-neighborhood cache policies for one run.
// It is called once per System construction and returns a constructor
// invoked once per neighborhood, so strategies can hold per-run shared
// state (the global-LFU popularity aggregator) or pre-split per-plant
// data (the oracle's future index).
type StrategyFactory func(env *PolicyEnv) (func(nb int) (cache.Policy, error), error)

// strategyEntry is one registered strategy: its factory, the
// concurrency traits it declared, and a one-line description for
// catalogs and CLI help.
type strategyEntry struct {
	factory     StrategyFactory
	traits      StrategyTraits
	description string
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]strategyEntry)
)

// RegisterStrategy adds a named caching strategy to the registry with
// zero traits: the engine serializes record processing for it unless the
// factory couples shared state through PolicyEnv.Couple. Use
// RegisterStrategyTraits to declare per-neighborhood independence and
// unlock fully concurrent shards. Registered names are resolved by
// Config.StrategyName (and by the Strategy enum constants, whose String
// names are registered at init). Registering an empty name, a nil
// factory, or a duplicate name fails.
func RegisterStrategy(name string, f StrategyFactory) error {
	return RegisterStrategyTraits(name, f, StrategyTraits{})
}

// RegisterStrategyTraits registers a strategy together with explicit
// concurrency traits.
func RegisterStrategyTraits(name string, f StrategyFactory, traits StrategyTraits) error {
	return RegisterStrategyInfo(name, "", f, traits)
}

// RegisterStrategyInfo registers a strategy together with explicit
// concurrency traits and a one-line description surfaced by
// StrategyInfos (vodsim -strategy-list, experiment catalogs).
func RegisterStrategyInfo(name, description string, f StrategyFactory, traits StrategyTraits) error {
	if name == "" {
		return fmt.Errorf("core: empty strategy name")
	}
	if f == nil {
		return fmt.Errorf("core: nil factory for strategy %q", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("core: strategy %q already registered", name)
	}
	registry[name] = strategyEntry{factory: f, traits: traits, description: description}
	return nil
}

// mustRegisterStrategy registers a built-in and panics on conflict.
func mustRegisterStrategy(name, description string, f StrategyFactory, traits StrategyTraits) {
	if err := RegisterStrategyInfo(name, description, f, traits); err != nil {
		panic(err)
	}
}

// independent is the traits value of built-ins whose per-neighborhood
// policies share no mutable state.
var independent = StrategyTraits{ShardIndependent: true}

// lookupStrategy resolves a registered strategy entry.
func lookupStrategy(name string) (strategyEntry, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// LookupStrategyFactory resolves a registered strategy name.
func LookupStrategyFactory(name string) (StrategyFactory, bool) {
	e, ok := lookupStrategy(name)
	return e.factory, ok
}

// RegisteredStrategies returns every registered strategy name, sorted.
func RegisteredStrategies() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StrategyInfo describes one registered strategy for catalogs and CLI
// help.
type StrategyInfo struct {
	// Name selects the strategy via Config.StrategyName.
	Name string
	// Description is the registrant's one-line summary ("" for
	// strategies registered without one).
	Description string
	// Traits are the declared concurrency traits.
	Traits StrategyTraits
}

// StrategyInfos returns every registered strategy with its description,
// sorted by name.
func StrategyInfos() []StrategyInfo {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]StrategyInfo, 0, len(registry))
	for name, e := range registry {
		out = append(out, StrategyInfo{Name: name, Description: e.description, Traits: e.traits})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// perNeighborhood lifts a context-free policy constructor into a factory.
func perNeighborhood(build func(cfg Config) (cache.Policy, error)) StrategyFactory {
	return func(env *PolicyEnv) (func(nb int) (cache.Policy, error), error) {
		cfg := env.Config
		return func(int) (cache.Policy, error) { return build(cfg) }, nil
	}
}

// pipeline assembles a pipeline policy, for registry factories.
func pipeline(name string, scorer cache.Scorer) (cache.Policy, error) {
	return cache.NewPipeline(cache.PipelineConfig{Name: name, Scorer: scorer})
}

// storedSegments lifts the environment's length resolver into a stored
// segment counter for size-aware scorers: the segments a program
// actually occupies under the run's configured prefix cap (replicas
// multiply every program's footprint uniformly, so they cancel out of
// relative rankings).
func storedSegments(env *PolicyEnv) func(trace.ProgramID) int {
	lengths := env.Lengths
	if lengths == nil {
		lengths = func(trace.ProgramID) time.Duration { return 0 }
	}
	prefix := env.Config.PrefixSegments
	return func(p trace.ProgramID) int {
		n := segment.Count(lengths(p))
		if prefix > 0 && n > prefix {
			n = prefix
		}
		return n
	}
}

// The built-in strategy zoo. The paper's four strategies are pipeline
// compositions of the stages in internal/cache; the rest are new
// compositions the stage split enables. TestStrategyGolden pins what
// each of them does.
func init() {
	mustRegisterStrategy(StrategyLRU.String(),
		"least-recently-used queue; every miss admits (paper §IV-B.2)",
		perNeighborhood(func(Config) (cache.Policy, error) {
			return pipeline("lru", cache.NewConstantScorer("recency-only", 0))
		}), independent)

	mustRegisterStrategy(StrategyLFU.String(),
		"most-frequently-used in a sliding history window, LRU tie-break (paper §IV-B.2)",
		perNeighborhood(func(cfg Config) (cache.Policy, error) {
			sc, err := cache.NewFrequencyScorer(cfg.LFUHistory)
			if err != nil {
				return nil, err
			}
			return pipeline("lfu", sc)
		}), independent)

	mustRegisterStrategy(StrategyOracle.String(),
		"impossible ideal: keeps the programs most used in the next three days (paper §VI-A)",
		func(env *PolicyEnv) (func(nb int) (cache.Policy, error), error) {
			if env.Future == nil {
				return nil, fmt.Errorf("core: strategy %q needs future knowledge (supply the upcoming trace)", StrategyOracle)
			}
			futures := make([][]trace.Record, env.Topology.NeighborhoodCount())
			for _, r := range env.Future {
				nb, ok := env.Topology.Home(r.User)
				if !ok {
					return nil, fmt.Errorf("core: user %d not homed", r.User)
				}
				futures[nb.ID()] = append(futures[nb.ID()], r)
			}
			lookahead := env.Config.OracleLookahead
			return func(nb int) (cache.Policy, error) {
				sc, err := cache.NewOracleScorer(cache.BuildFutureIndex(futures[nb]), lookahead)
				if err != nil {
					return nil, err
				}
				return pipeline("oracle", sc)
			}, nil
		}, independent)

	// Global-LFU policies share the popularity aggregator. A lagged feed
	// is observable only at publication instants, so the factory couples
	// it for epoch-barrier execution at every parallelism; a live feed
	// (lag 0) couples neighborhoods per request and leaves the zero
	// traits, which makes the engine serialize.
	mustRegisterStrategy(StrategyGlobalLFU.String(),
		"LFU fed by usage aggregated across all neighborhoods, optionally on a publication lag (paper Fig. 13)",
		func(env *PolicyEnv) (func(nb int) (cache.Policy, error), error) {
			global, err := cache.NewGlobal(env.Config.LFUHistory, env.Config.GlobalLag)
			if err != nil {
				return nil, err
			}
			if env.Config.GlobalLag > 0 {
				env.Couple(global)
			}
			return func(int) (cache.Policy, error) {
				return pipeline("global-lfu", global.NewScorer())
			}, nil
		}, StrategyTraits{})

	mustRegisterStrategy("gdsf",
		"size-aware frequency: windowed count scaled down by stored size, so many short popular programs beat few long ones",
		func(env *PolicyEnv) (func(nb int) (cache.Policy, error), error) {
			segments := storedSegments(env)
			history := env.Config.LFUHistory
			return func(int) (cache.Policy, error) {
				sc, err := cache.NewSizeFrequencyScorer(history, segments)
				if err != nil {
					return nil, err
				}
				return pipeline("gdsf", sc)
			}, nil
		}, independent)

	mustRegisterStrategy("lru-2",
		"last-two-reference recency: once-requested programs evict before any requested twice (hour-quantized LRU-2)",
		perNeighborhood(func(Config) (cache.Policy, error) {
			sc, err := cache.NewRecency2Scorer(time.Hour)
			if err != nil {
				return nil, err
			}
			return pipeline("lru-2", sc)
		}), independent)

	mustRegisterStrategy("prefix-lfu",
		"windowed frequency with popularity-scaled prefix depths: cold programs keep short prefixes, hot programs whole",
		perNeighborhood(func(cfg Config) (cache.Policy, error) {
			sc, err := cache.NewFrequencyScorer(cfg.LFUHistory)
			if err != nil {
				return nil, err
			}
			planner, err := cache.NewPopularityPrefixPlanner(sc, 0)
			if err != nil {
				return nil, err
			}
			return cache.NewPipeline(cache.PipelineConfig{
				Name:    "prefix-lfu",
				Scorer:  sc,
				Planner: planner,
			})
		}), independent)
}
