package core

import (
	"strings"
	"testing"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/trace"
)

func TestRegistryBuiltins(t *testing.T) {
	names := RegisteredStrategies()
	for _, want := range []string{"lru", "lfu", "oracle", "global-lfu"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q not registered (have %v)", want, names)
		}
	}
}

func TestRegistryRejectsDuplicatesAndNil(t *testing.T) {
	if err := RegisterStrategy("lfu", perNeighborhood(func(Config) (cache.Policy, error) {
		return lruPolicy(t), nil
	})); err == nil {
		t.Error("expected error re-registering lfu")
	}
	if err := RegisterStrategy("", nil); err == nil {
		t.Error("expected error for empty name")
	}
	if err := RegisterStrategy("x-nil", nil); err == nil {
		t.Error("expected error for nil factory")
	}
}

func TestValidateUnknownStrategyName(t *testing.T) {
	cfg := oneNeighborhoodConfig(StrategyLFU)
	cfg.StrategyName = "never-registered"
	err := cfg.Validate()
	if err == nil {
		t.Fatal("expected error for unregistered strategy name")
	}
	if !strings.Contains(err.Error(), "never-registered") {
		t.Errorf("error %q does not name the strategy", err)
	}
}

func TestOracleRequiresFuture(t *testing.T) {
	cfg := oneNeighborhoodConfig(StrategyOracle)
	_, err := NewSystem(cfg, Workload{Users: []trace.UserID{1, 2}})
	if err == nil {
		t.Fatal("expected error for oracle without future knowledge")
	}
	if !strings.Contains(err.Error(), "future") {
		t.Errorf("error %q does not mention future knowledge", err)
	}
}

// TestStoredSegmentsRespectsPrefixCap: the gdsf size resolver scores by
// the segments a program actually stores under the run's prefix cap,
// not its full catalog length.
func TestStoredSegmentsRespectsPrefixCap(t *testing.T) {
	lengths := func(p trace.ProgramID) time.Duration {
		if p == 1 {
			return 2 * time.Hour // 24 segments
		}
		return 20 * time.Minute // 4 segments
	}
	capped := storedSegments(&PolicyEnv{Config: Config{PrefixSegments: 4}, Lengths: lengths})
	if got1, got2 := capped(1), capped(2); got1 != 4 || got2 != 4 {
		t.Errorf("capped stored segments = %d/%d, want 4/4 (both store the same prefix)", got1, got2)
	}
	whole := storedSegments(&PolicyEnv{Lengths: lengths})
	if got1, got2 := whole(1), whole(2); got1 != 24 || got2 != 4 {
		t.Errorf("uncapped stored segments = %d/%d, want 24/4", got1, got2)
	}
	if got := storedSegments(&PolicyEnv{})(1); got != 0 {
		t.Errorf("nil-lengths stored segments = %d, want 0", got)
	}
}

// TestStrategyInfosDescribesBuiltins: every built-in carries a
// description in the registry.
func TestStrategyInfosDescribesBuiltins(t *testing.T) {
	byName := map[string]StrategyInfo{}
	for _, info := range StrategyInfos() {
		byName[info.Name] = info
	}
	for _, name := range []string{"lru", "lfu", "oracle", "global-lfu", "gdsf", "lru-2", "prefix-lfu"} {
		if byName[name].Description == "" {
			t.Errorf("built-in %q has no registry description", name)
		}
	}
}
