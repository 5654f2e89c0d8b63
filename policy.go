package cablevod

import (
	"fmt"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/core"
)

// Policy API v2: composable pipelines. Instead of implementing the
// seven-method Policy interface, a strategy is assembled from small
// orthogonal stages — a Scorer (retention value), an optional Admission
// filter, a Tiebreak rule, and an optional Planner choosing which
// segments of a program to keep — registered through RegisterPipeline
// and selected by Config.StrategyName like any other strategy. The
// built-in lru, lfu, oracle, and global-lfu strategies are themselves
// pipeline compositions; STRATEGIES.md catalogues the whole zoo.

// Pipeline stage contracts, shared with the engine.
type (
	// Scorer is the valuation stage: it observes requests and scores
	// programs for admission comparison and eviction ranking (higher is
	// more valuable). Scorers with asynchronous decay push score
	// changes of cached programs through the ScoreSink bound to them.
	Scorer = cache.Scorer

	// ScoreSink receives retention-score changes for cached programs
	// from a Scorer.
	ScoreSink = cache.ScoreSink

	// Admission is the filter stage: it decides whether a missed
	// program may enter the cache at all.
	Admission = cache.Admission

	// Planner is the segment-placement stage: it chooses each
	// program's placement plan (prefix depth, replica count) given the
	// run's configured default.
	Planner = cache.Planner

	// Plan is a segment placement plan: how deep a prefix to cache
	// (0 = whole program) and how many copies of each segment to keep.
	Plan = cache.Plan

	// Tiebreak orders programs sharing a score.
	Tiebreak = cache.Tiebreak
)

// Tiebreak modes.
const (
	// TiebreakLRU refreshes recency on every request (the paper's rule,
	// default).
	TiebreakLRU = cache.TiebreakLRU
	// TiebreakFIFO does not refresh recency on a request. Under a
	// constant score, equal-scored programs evict in insertion order;
	// a program whose score changes joins its new score's group at the
	// most-recent end (rise) or least-recent end (decay), so under
	// frequency scoring, where every request raises a count, equal
	// scores end up ordered by last request, as under TiebreakLRU.
	TiebreakFIFO = cache.TiebreakFIFO
)

// StageTraits declares how one stage's per-neighborhood instances may
// be distributed across concurrent engine shards.
type StageTraits struct {
	// ShardIndependent asserts that instances built by this stage's
	// constructor for different neighborhoods share no mutable state.
	// A pipeline runs its shards concurrently only when every present
	// stage declares independence; the zero value is the safe default
	// (the engine serializes, always correct).
	ShardIndependent bool
}

// ScorerStage builds the valuation stage of a pipeline, once per
// neighborhood.
type ScorerStage struct {
	// New builds the stage for one neighborhood from the run's
	// resolved configuration (required).
	New func(cfg Config) Scorer
	// Traits declares the stage's shard independence.
	Traits StageTraits
}

// AdmissionStage builds the optional admission-filter stage of a
// pipeline, once per neighborhood.
type AdmissionStage struct {
	// New builds the stage (nil = no admission filter: every miss may
	// be considered for admission).
	New func(cfg Config) Admission
	// Traits declares the stage's shard independence.
	Traits StageTraits
}

// PlannerStage builds the optional segment-placement stage of a
// pipeline, once per neighborhood.
type PlannerStage struct {
	// New builds the stage (nil = every program gets the run-default
	// plan from Config.PrefixSegments/Replicas). The neighborhood's
	// scorer is passed in so plans can follow the same valuation
	// (popularity-scaled prefix depths).
	New func(cfg Config, scorer Scorer) Planner
	// Traits declares the stage's shard independence.
	Traits StageTraits
}

// PolicySpec assembles a caching strategy from composable stages. The
// zero value of an optional stage means "absent".
type PolicySpec struct {
	// Name selects the strategy via Config.StrategyName (required,
	// unique across the registry).
	Name string

	// Description is a one-line summary surfaced by ListStrategies and
	// vodsim -strategy-list.
	Description string

	// Scorer is the valuation stage (required).
	Scorer ScorerStage

	// Admission is the optional admission-filter stage.
	Admission AdmissionStage

	// Plan is the optional segment-placement stage.
	Plan PlannerStage

	// Tiebreak orders programs sharing a score (default TiebreakLRU).
	Tiebreak Tiebreak
}

// shardIndependent reports whether every present stage declared shard
// independence, unlocking concurrent shard execution.
func (spec PolicySpec) shardIndependent() bool {
	if !spec.Scorer.Traits.ShardIndependent {
		return false
	}
	if spec.Admission.New != nil && !spec.Admission.Traits.ShardIndependent {
		return false
	}
	if spec.Plan.New != nil && !spec.Plan.Traits.ShardIndependent {
		return false
	}
	return true
}

// RegisterPipeline adds a composed caching strategy to the engine's
// registry, making it selectable by Config.StrategyName in New, Run,
// and RunScenario alongside the built-ins. Stage constructors are
// invoked once per neighborhood per run; the engine executes
// neighborhood shards concurrently only when every present stage
// declares ShardIndependent, and serializes otherwise (always correct).
// Registration fails on an empty name, a missing scorer stage, or a
// name already registered.
func RegisterPipeline(spec PolicySpec) error {
	if spec.Name == "" {
		return fmt.Errorf("cablevod: pipeline spec needs a name")
	}
	if spec.Scorer.New == nil {
		return fmt.Errorf("cablevod: pipeline %q needs a scorer stage", spec.Name)
	}
	factory := func(env *core.PolicyEnv) (func(int) (cache.Policy, error), error) {
		cfg := publicConfig(env.Config)
		return func(int) (cache.Policy, error) {
			scorer := spec.Scorer.New(cfg)
			if scorer == nil {
				return nil, fmt.Errorf("cablevod: pipeline %q scorer stage returned nil", spec.Name)
			}
			pc := cache.PipelineConfig{
				Name:     spec.Name,
				Scorer:   scorer,
				Tiebreak: spec.Tiebreak,
			}
			if spec.Admission.New != nil {
				if pc.Admission = spec.Admission.New(cfg); pc.Admission == nil {
					return nil, fmt.Errorf("cablevod: pipeline %q admission stage returned nil", spec.Name)
				}
			}
			if spec.Plan.New != nil {
				if pc.Planner = spec.Plan.New(cfg, scorer); pc.Planner == nil {
					return nil, fmt.Errorf("cablevod: pipeline %q plan stage returned nil", spec.Name)
				}
			}
			return cache.NewPipeline(pc)
		}, nil
	}
	return core.RegisterStrategyInfo(spec.Name, spec.Description, factory,
		core.StrategyTraits{ShardIndependent: spec.shardIndependent()})
}

// StrategyInfo describes one registered strategy.
type StrategyInfo struct {
	// Name selects the strategy via Config.StrategyName.
	Name string
	// Description is the registrant's one-line summary ("" for
	// strategies registered without one).
	Description string
}

// ListStrategies returns every registered strategy with its
// description, sorted by name — the catalog behind vodsim
// -strategy-list.
func ListStrategies() []StrategyInfo {
	var out []StrategyInfo
	for _, info := range core.StrategyInfos() {
		out = append(out, StrategyInfo{Name: info.Name, Description: info.Description})
	}
	return out
}

// Built-in stages, for composing pipelines without reimplementing the
// bookkeeping. All of them are shard-independent.

// NewConstantScorer returns a scorer valuing every program at score;
// with TiebreakLRU this composes to plain LRU.
func NewConstantScorer(score int) Scorer {
	return cache.NewConstantScorer("constant", score)
}

// NewFrequencyScorer returns the windowed-frequency scorer behind the
// built-in lfu (history 0 degenerates to LRU).
func NewFrequencyScorer(history time.Duration) (Scorer, error) {
	return cache.NewFrequencyScorer(history)
}

// NewRecency2Scorer returns the last-two-reference scorer behind the
// built-in lru-2 (quantum 0 = one hour).
func NewRecency2Scorer(quantum time.Duration) (Scorer, error) {
	return cache.NewRecency2Scorer(quantum)
}

// NewSecondTouchAdmission returns a bypass-on-first-touch filter: only
// programs requested at least twice may be admitted.
func NewSecondTouchAdmission() Admission {
	return cache.NewSecondTouchAdmission()
}

// NewSizeCapAdmission returns a filter admitting only programs whose
// admission size is at most max bytes.
func NewSizeCapAdmission(max ByteSize) (Admission, error) {
	return cache.NewSizeCapAdmission(max)
}

// NewPopularityPrefixPlanner returns the popularity-scaled prefix
// planner behind the built-in prefix-lfu: depth grows with the
// counter's score, and programs scoring wholeAt or above (0 = default
// 4) are kept whole.
func NewPopularityPrefixPlanner(counter Scorer, wholeAt int) (Planner, error) {
	return cache.NewPopularityPrefixPlanner(counter, wholeAt)
}
