package universe

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"cablevod/internal/core"
	"cablevod/internal/scenario"
)

// Footprint is a point-in-time process memory reading.
type Footprint struct {
	// HeapLiveBytes is the live heap after a forced collection — the
	// number the per-subscriber budget is written against, because it
	// excludes garbage awaiting collection and allocator slack.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`

	// HeapSysBytes is heap memory held from the OS (includes slack).
	HeapSysBytes uint64 `json:"heap_sys_bytes"`

	// PeakRSSBytes is the process high-water resident set (VmHWM),
	// zero where /proc is unavailable. Process-wide and monotonic: it
	// includes the runtime, the binary, and every earlier phase of the
	// process, so it is context rather than a budget gate.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
}

// MeasureFootprint forces a collection and reads the process footprint.
func MeasureFootprint() Footprint {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Footprint{
		HeapLiveBytes: ms.HeapAlloc,
		HeapSysBytes:  ms.HeapSys,
		PeakRSSBytes:  PeakRSS(),
	}
}

// PeakRSS reads the process high-water resident set (VmHWM) from
// /proc/self/status (Linux; 0 elsewhere). Cheap enough for a metrics
// scrape path.
func PeakRSS() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// MemReport is the memory-accounting probe's result: steady-state
// engine footprint for a universe tier, normalized per 100k
// subscribers so tiers of different sizes are comparable and so the
// mega tier's footprint can be projected before committing to the run.
type MemReport struct {
	Tier            string  `json:"tier"`
	Subscribers     int     `json:"subscribers"`
	Neighborhoods   int     `json:"neighborhoods"`
	Records         int     `json:"records"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record"`

	// BaselineHeapBytes is the live heap before the engine existed;
	// HeapLiveBytes is the live heap with the full plant and its
	// steady-state session load resident, before teardown.
	BaselineHeapBytes uint64  `json:"baseline_heap_bytes"`
	HeapLiveBytes     uint64  `json:"heap_live_bytes"`
	HeapPer100k       float64 `json:"heap_bytes_per_100k_subscribers"`
	PeakRSSBytes      uint64  `json:"peak_rss_bytes"`
}

// ProbeTier is the plant the benchmark's memory probe measures: large
// enough (100k subscribers, 100 neighborhoods — a tenth of mega) that
// fixed process overhead does not dominate the per-100k normalization,
// small enough to run in seconds.
func ProbeTier() Config {
	return Config{
		Name:          "mem-probe",
		Description:   "memory-accounting plant: 100,000 subscribers, 100 neighborhoods, 2 days",
		Subscribers:   100_000,
		Neighborhoods: 100,
		Catalog:       ScaledCatalog(100_000),
		Days:          2,
		Seed:          1,
	}
}

// MemoryProbe builds the tier's plant, streams its whole workload
// through the engine, and reports the steady-state footprint and
// per-record allocation cost. base supplies engine policy (strategy,
// fill, parallelism); the tier dictates the plant. The benchmark runs
// it on ProbeTier.
func MemoryProbe(tier Config, base core.Config) (*MemReport, error) {
	if err := tier.Validate(); err != nil {
		return nil, err
	}
	cfg := tier.EngineConfig(base)

	baseline := MeasureFootprint()

	stream, population, err := scenario.NewStream(tier.Spec(), cfg.Topology)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg, core.Workload{Users: population, Lengths: stream.Lengths()})
	if err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	records := 0
	for !stream.Done() {
		recs, _, err := stream.NextHour()
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			continue
		}
		records += len(recs)
		if err := sys.SubmitBatch(recs); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)

	// Measure with the engine still live: the plant, the shards, and
	// the tail of in-flight sessions are the steady-state footprint.
	steady := MeasureFootprint()
	if _, err := sys.Close(); err != nil {
		return nil, err
	}

	rep := &MemReport{
		Tier:              tier.Name,
		Subscribers:       tier.Subscribers,
		Neighborhoods:     tier.Neighborhoods,
		Records:           records,
		BaselineHeapBytes: baseline.HeapLiveBytes,
		HeapLiveBytes:     steady.HeapLiveBytes,
		PeakRSSBytes:      steady.PeakRSSBytes,
	}
	if records > 0 {
		rep.AllocsPerRecord = float64(after.Mallocs-before.Mallocs) / float64(records)
		rep.BytesPerRecord = float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
	}
	engineHeap := float64(steady.HeapLiveBytes) - float64(baseline.HeapLiveBytes)
	if engineHeap < 0 {
		engineHeap = 0
	}
	rep.HeapPer100k = engineHeap * 100_000 / float64(tier.Subscribers)
	return rep, nil
}

// String renders the report for terminal output.
func (r *MemReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memory probe (%s: %d subscribers / %d neighborhoods, %d records)\n",
		r.Tier, r.Subscribers, r.Neighborhoods, r.Records)
	fmt.Fprintf(&b, "  allocs/record      %.2f\n", r.AllocsPerRecord)
	fmt.Fprintf(&b, "  bytes/record       %.1f\n", r.BytesPerRecord)
	fmt.Fprintf(&b, "  steady-state heap  %.1f MB (%.1f MB per 100k subscribers)\n",
		float64(r.HeapLiveBytes)/1e6, r.HeapPer100k/1e6)
	if r.PeakRSSBytes > 0 {
		fmt.Fprintf(&b, "  peak RSS           %.1f MB (process-wide)\n", float64(r.PeakRSSBytes)/1e6)
	}
	return b.String()
}
