package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"cablevod/internal/core"
)

// counters is core.Counters with JSON tags that decode as well as encode
// (core.Counters marshals to snake_case keys but has no decoder). The
// conversion from core.Counters stops compiling if the engine's counter
// set changes, which would also invalidate the goldens.
type counters struct {
	Sessions        uint64 `json:"sessions"`
	SegmentRequests uint64 `json:"segment_requests"`
	Hits            uint64 `json:"hits"`
	MissNotCached   uint64 `json:"miss_not_cached"`
	MissUnplaced    uint64 `json:"miss_unplaced"`
	MissPeerBusy    uint64 `json:"miss_peer_busy"`
	MissFirstFetch  uint64 `json:"miss_first_fetch"`
	Fills           uint64 `json:"fills"`
	CoaxOverloads   uint64 `json:"coax_overloads"`
	Admissions      uint64 `json:"admissions"`
	Evictions       uint64 `json:"evictions"`
}

// outcome is what a correct run of a workload must end with: the
// engine's final counters and transfer totals, plus the canonical state
// digest for a long run. The engine is deterministic, so every pass of a
// workload, every resume of it and every equivalent run must agree.
type outcome struct {
	Counters   counters `json:"counters"`
	ServerBits int64    `json:"server_bits"`
	DemandBits int64    `json:"demand_bits"`
	Digest     string   `json:"digest,omitempty"`
}

func outcomeOf(res *core.Result, digest string) outcome {
	return outcome{Counters: counters(res.Counters), ServerBits: res.ServerBits, DemandBits: res.DemandBits, Digest: digest}
}

// goldenPath is where -update writes the goldens, relative to the repo
// root the benchmark runs from.
const goldenPath = "bench/testdata/outcomes.json"

// goldenJSON holds each workload's outcome by seed, then by workload.
//
//go:embed testdata/outcomes.json
var goldenJSON []byte

type goldens map[string]map[string]outcome

func loadGoldens() (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/outcomes.json: %w", err)
	}
	return g, nil
}

// lookup returns the golden outcome of a workload at a seed, or nil.
func (g goldens) lookup(seed uint64, workload string) *outcome {
	o, ok := g[strconv.FormatUint(seed, 10)][workload]
	if !ok {
		return nil
	}
	return &o
}

// update records a seed's outcomes and writes the goldens to goldenPath.
func (g goldens) update(seed uint64, outs map[string]outcome) error {
	g[strconv.FormatUint(seed, 10)] = outs
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
