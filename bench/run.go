package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"cablevod/internal/synth"
	"cablevod/internal/universe"
)

// endToEnd names the metrics an untraced run reports. A traced run
// reports the per-layer metrics instead.
var endToEnd = []string{"setup_s", "rec_per_s", "krec_p50_ms", "resume_s", "peak_rss_mb", "live_heap_mb"}

// samplesPerPass is how many set-ups and resumes an untraced run times
// after each pass (metro-longrun takes its resumes between the two
// LongRun calls of each pass). Both take well under a second, so with
// one sample per pass setup_s and resume_s were the noisiest medians of
// a run: metro-longrun's 9 ms set-up spread by 33% (interquartile range
// over median) across ten seeds.
const samplesPerPass = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a workload run ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timing is one timed sample of an untraced run and the calibration
// cycle it was taken in: the samples after the cycle'th calibration and
// before the next (-1 before the first).
type timing struct {
	v     float64
	cycle int
}

// passResult is what one timed pass of a workload reports.
type passResult struct {
	records int
	elapsed time.Duration
	// perKrec holds each submission's latency as its caller sees it,
	// scaled to 1,000 records, for krec_p50_ms.
	perKrec []time.Duration
}

// run is one workload's measurement, made in its own process.
type run struct {
	workload string
	seed     uint64
	sz       size
	budget   time.Duration // passes repeat until this much time is spent
	dir      string        // scratch space for checkpoints
	traced   bool
	tr       *tracer // spans of traced passes and probes; nil when untraced
	log      io.Writer

	golden    *outcome // this seed's golden outcome, if there is one
	first     *outcome // the run's first outcome, for cross-checks
	attempted int
	failed    int
	metrics   map[string]metric

	plainRates  []timing  // records/s of untraced passes
	tracedRates []float64 // records/s of traced passes
	perKrec     []timing  // submission latencies of untraced passes, ms

	// An untraced run repeats the set-up (rebuild) and, where the
	// workload sets one, a resume sample (resumeSample) samplesPerPass
	// times after every pass, so their samples spread over the run as the
	// passes do: the median then rides out the machine's slow drift
	// instead of catching one moment of it.
	rebuild      func() (cleanup func() error, err error)
	resumeSample func() error
	setupTimes   []timing
	resumeTimes  []timing

	// calibs holds each calibration's median time in milliseconds: one
	// before every pass and one after the last (see calib.go).
	calibs []float64

	// Traced passes only: CPU time by layer, the first pass's profile,
	// and allocation and CPU-time deltas.
	cpu      cpuShares
	profile  []byte
	records  uint64
	mallocs  uint64
	alloced  uint64
	gcCPU    float64
	totalCPU float64
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// timed tags a sample with the current calibration cycle.
func (r *run) timed(v float64) timing { return timing{v: v, cycle: len(r.calibs) - 1} }

// calibrate runs a calibration child and records its median time. It
// collects garbage first, so no collection of this process's heap runs
// beside the child's and the yardstick does not move with the program's
// allocations.
func (r *run) calibrate() error {
	runtime.GC()
	times, err := calibrate()
	if err != nil {
		return err
	}
	r.calibs = append(r.calibs, median(ms(times)))
	return nil
}

// check compares an outcome with this seed's golden, or with the run's
// first outcome when there is no golden; a mismatch is a failure.
func (r *run) check(what string, o outcome) {
	r.attempted++
	want := r.golden
	if want == nil {
		want = r.first
	}
	if r.first == nil {
		r.first = &o
	}
	if want != nil && *want != o {
		r.failed++
		fmt.Fprintf(r.log, "%s: %s ended with %+v, want %+v\n", r.workload, what, o, *want)
	}
}

// setup builds the workload's inputs and a first engine, timing it for
// setup_s: the time from nothing to an engine ready for its first record.
// A cleanup that build returns runs untimed. An untraced run repeats
// build after every pass.
func (r *run) setup(build func() (cleanup func() error, err error)) error {
	r.rebuild = build
	return r.sampleSetup()
}

func (r *run) sampleSetup() error {
	runtime.GC()
	start := time.Now()
	cleanup, err := r.rebuild()
	took := time.Since(start)
	if err == nil && cleanup != nil {
		err = cleanup()
	}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupTimes = append(r.setupTimes, r.timed(took.Seconds()))
	return nil
}

// passes calls pass as often as the budget allows: at least once, and in
// a traced run at least twice, alternating untraced and traced passes so
// the tracing overhead comes from interleaved passes. A pass starts only
// when at least half the longest cycle so far (calibration, pass, set-up
// and resumes) is left of the budget, so the passes end within about half
// a cycle of the budget, on either side, instead of up to a cycle past
// it. A traced pass runs under a span, a CPU profile and allocation
// accounting. Every pass follows a calibration and starts from a
// collected heap, as a fresh process would, so garbage from the previous
// pass does not decide when the next one collects. peak_rss_mb is read
// after the passes, before any probe.
func (r *run) passes(pass func(tr *tracer, parent int64) (passResult, error)) error {
	least := 1
	if r.traced {
		least = 2
	}
	start := time.Now()
	var longest time.Duration
	for i := 0; i < least || time.Since(start)+longest/2 <= r.budget; i++ {
		began := time.Now()
		if err := r.calibrate(); err != nil {
			return err
		}
		var err error
		if !r.traced || i%2 == 0 {
			err = r.plainCycle(i, pass)
		} else {
			err = r.tracedPass(i, pass)
		}
		if err != nil {
			return err
		}
		longest = max(longest, time.Since(began))
	}
	r.set("peak_rss_mb", "MB", float64(universe.PeakRSS())/1e6)
	return r.calibrate()
}

// plainCycle runs one untraced pass and, in an untraced run, times
// samplesPerPass set-ups and, where the workload sets a resume sample,
// as many resumes after it.
func (r *run) plainCycle(i int, pass func(tr *tracer, parent int64) (passResult, error)) error {
	pr, err := pass(nil, 0)
	if err != nil {
		return err
	}
	r.logPass(i, "", pr)
	r.plainRates = append(r.plainRates, r.timed(float64(pr.records)/pr.elapsed.Seconds()))
	for _, v := range ms(pr.perKrec) {
		r.perKrec = append(r.perKrec, r.timed(v))
	}
	if r.traced {
		return nil
	}
	for j := 0; j < samplesPerPass; j++ {
		if err := r.sampleSetup(); err != nil {
			return err
		}
		if r.resumeSample != nil {
			if err := r.resumeSample(); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracedPass runs one pass under a span, a CPU profile and allocation
// accounting.
func (r *run) tracedPass(i int, pass func(tr *tracer, parent int64) (passResult, error)) error {
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, total0 := cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	t := r.tr.begin("bench.pass", 0)
	pr, err := pass(r.tr, t.id)
	t.end()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	gc1, total1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	r.gcCPU += gc1 - gc0
	r.totalCPU += total1 - total0
	r.mallocs += after.Mallocs - before.Mallocs
	r.alloced += after.TotalAlloc - before.TotalAlloc
	r.records += uint64(pr.records)
	if err := r.cpu.add(prof.Bytes()); err != nil {
		return err
	}
	if r.profile == nil {
		r.profile = prof.Bytes()
	}
	r.logPass(i, " traced", pr)
	r.tracedRates = append(r.tracedRates, float64(pr.records)/pr.elapsed.Seconds())
	return nil
}

func (r *run) logPass(i int, kind string, pr passResult) {
	fmt.Fprintf(r.log, "%s pass %d%s: %d records in %.3f s, %.0f rec/s\n",
		r.workload, i+1, kind, pr.records, pr.elapsed.Seconds(), float64(pr.records)/pr.elapsed.Seconds())
}

// cpuSeconds reads the runtime's cumulative GC CPU time and its busy
// (non-idle) CPU time.
func cpuSeconds() (gc, busy float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// liveHeap collects garbage and returns the heap bytes still in use. It
// collects twice: buffers parked in a sync.Pool (encoding/json keeps its
// last encode buffer there, the size of a whole encoded engine state)
// survive the first collection in the pool's victim cache.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// layerProbes runs the isolated per-layer probes on the workload's own
// records: stream generation, the event queue, session starts, and, for
// workloads that do not go through the daemon, the serve layer.
func (r *run) layerProbes(p plant, newStream func() (*synth.Stream, error), serveProbe bool) error {
	recs, err := r.streamProbe(newStream)
	if err != nil {
		return err
	}
	r.eventqProbe(recs)
	if err := r.sessionStartProbe(p, recs); err != nil {
		return err
	}
	if serveProbe {
		return r.serveProbe(p, recs)
	}
	return nil
}

// finish sets the metrics the whole run contributes and, in a traced
// run, writes the spans and the first traced pass's CPU profile to
// traceDir/<workload> and prints the self-time table.
func (r *run) finish(traceDir string) error {
	if !r.traced {
		fmt.Fprintf(r.log, "%s: as measured, %.0f rec/s, krec p50 %.3f ms, setup %.3f s, resume %.3f s; calibrations %.1f ms (median of %d), reference %.1f ms\n",
			r.workload, median(values(r.plainRates)), median(values(r.perKrec)), median(values(r.setupTimes)), median(values(r.resumeTimes)),
			median(r.calibs), len(r.calibs), float64(calibNominal)/float64(time.Millisecond))
		r.set("rec_per_s", "rec/s", median(r.atReference(r.plainRates, true)))
		r.set("krec_p50_ms", "ms", median(r.atReference(r.perKrec, false)))
		r.set("setup_s", "s", median(r.atReference(r.setupTimes, false)))
		r.set("resume_s", "s", median(r.atReference(r.resumeTimes, false)))
		return nil
	}
	r.set("host.calib_ms", "ms", median(r.calibs))
	r.reportCounts()
	r.set("runtime.allocs_per_rec", "count/rec", float64(r.mallocs)/float64(r.records))
	r.set("runtime.bytes_per_rec", "B/rec", float64(r.alloced)/float64(r.records))
	r.set("runtime.gc_cpu_frac", "ratio", r.gcCPU/r.totalCPU)
	for _, l := range shareLayers {
		r.set("cpu_share."+l, "ratio", r.cpu.share(l))
	}
	plain := median(values(r.plainRates))
	r.set("trace.overhead_pct", "%", 100*(plain-median(r.tracedRates))/plain)

	dir := filepath.Join(traceDir, r.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := r.tr.snapshot()
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), r.profile, 0o644); err != nil {
		return err
	}
	printSelfTimes(r.log, r.workload, selfTimes(spans))
	fmt.Fprintf(r.log, "spans and profile in %s\n", dir)
	return nil
}

func values(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.v
	}
	return out
}

// atReference scales each sample to the reference host speed (see
// calib.go) by how much slower than the reference the host ran over the
// sample's cycle: the geometric mean of the calibrations before and after
// it, over calibNominal. A rate is multiplied by that, a time divided.
func (r *run) atReference(ts []timing, rate bool) []float64 {
	nominal := float64(calibNominal) / float64(time.Millisecond)
	out := make([]float64, len(ts))
	for i, t := range ts {
		before, after := r.calibs[max(t.cycle, 0)], r.calibs[min(t.cycle+1, len(r.calibs)-1)]
		slow := math.Sqrt(before*after) / nominal
		if rate {
			out[i] = t.v * slow
		} else {
			out[i] = t.v / slow
		}
	}
	return out
}

// result assembles the run's result line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (r *run) result() (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0, Metrics: map[string]metric{}}
	for name, m := range r.metrics {
		if slices.Contains(endToEnd, name) == r.traced {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", r.workload, name, m.Value)
		}
		res.Metrics[name] = m
	}
	return res, nil
}
