// Command bench is the repository's benchmark. It times the cable-VoD
// engine end to end on four workloads (see README.md), checks that every
// run ends with the outcome the deterministic engine must reach, and, in
// a traced run, breaks the time down layer by layer.
//
// Run it from the repository root through bench/run.sh, which builds it
// into .bench_build/ first:
//
//	bash bench/run.sh -seed 1                    # every workload, end-to-end metrics
//	bash bench/run.sh -seed 1 -trace 1           # per-layer metrics, spans and CPU profiles
//	bash bench/run.sh -seed 2 -sets 2            # repeatability check against the bounds
//	bash bench/run.sh --workload plant7d --seed 3 --seconds 25 --trace 0
//
// With -workload it measures that one workload in this process and ends
// its standard output with one JSON result line. Without it, it runs each
// workload in a child process of its own, so each workload's peak RSS is
// its own, and prints a table.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if calibrating() {
		os.Exit(calibMain(os.Stdout))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's command-line settings.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	name := fs.String("workload", "", "measure only this workload, in this process, ending the output with its JSON result line ("+strings.Join(workloadNames(), ", ")+")")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; seed 2 is the holdout")
	fs.Float64Var(&o.seconds, "seconds", 25, "seconds of timed passes per workload")
	trace := fs.Int("trace", 0, "1 for a traced run: per-layer metrics, spans and CPU profiles instead of end-to-end metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory a traced run writes WORKLOAD/spans.jsonl and WORKLOAD/cpu.pprof into")
	sets := fs.Int("sets", 1, "measure every workload this many times, reversing the order each time, and fail if an end-to-end metric spreads across the sets, or worsens from the earlier to the later sets, beyond its bound")
	update := fs.Bool("update", false, "write this seed's outcomes to "+goldenPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace is 0 or 1, got %d\n", *trace)
		return 2
	}
	o.traced = *trace == 1
	if *name != "" {
		return measureOne(*name, o, stdout, stderr)
	}
	if *sets < 1 {
		fmt.Fprintf(stderr, "bench: -sets must be at least 1, got %d\n", *sets)
		return 2
	}
	return measureAll(o, *sets, *update, stdout, stderr)
}

// measure runs one workload in this process. A golden outcome, when
// given, is what every pass must end with.
func measure(name string, o options, sz size, golden *outcome, dir string, log io.Writer) (result, *outcome, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return result{}, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	r := &run{
		workload: name, seed: o.seed, sz: sz, dir: dir, traced: o.traced, log: log, golden: golden,
		budget:  time.Duration(o.seconds * float64(time.Second)),
		metrics: map[string]metric{}, cpu: cpuShares{},
	}
	if o.traced {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	if err := workloads[i].run(r); err != nil {
		return result{}, nil, err
	}
	if err := r.finish(o.traceDir); err != nil {
		return result{}, nil, err
	}
	res, err := r.result()
	return res, r.first, err
}

// measureOne measures one workload at full size and prints its outcome
// line, then its result line.
func measureOne(name string, o options, stdout, stderr io.Writer) int {
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	res, out, err := measure(name, o, fullSize, g.lookup(o.seed, name), dir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	outLine, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "outcome %s\n%s\n", outLine, resLine)
	return 0
}

// childResult is what one workload's child process reported.
type childResult struct {
	outcome *outcome
	result  result
}

// runChild measures one workload in a child process of this binary.
func runChild(exe, name string, o options, stderr io.Writer) (childResult, error) {
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-trace-dir", o.traceDir)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s: %w", name, err)
	}
	var cr childResult
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "outcome "); ok {
			if err := json.Unmarshal([]byte(rest), &cr.outcome); err != nil {
				return cr, fmt.Errorf("%s: outcome line: %w", name, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.result); err != nil {
		return cr, fmt.Errorf("%s: result line: %w", name, err)
	}
	return cr, nil
}

// measureAll measures every workload in its own child process, sets
// times, reversing the workload order every other set, and prints each
// set's table. It fails when a run is incorrect, when daemon-ingest does
// not end where plant7d does (telemetry and HTTP only observe and carry
// the same records), or, over two or more sets, when the sets fail the
// acceptance check of checkSpreads.
func measureAll(o options, sets int, update bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	var all []map[string]childResult
	for set := 0; set < sets; set++ {
		order := workloadNames()
		if set%2 == 1 {
			slices.Reverse(order)
		}
		results := map[string]childResult{}
		for _, name := range order {
			cr, err := runChild(exe, name, o, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			results[name] = cr
			if !cr.result.Correct {
				code = 1
			}
		}
		if d, p := results["daemon-ingest"].outcome, results["plant7d"].outcome; d != nil && p != nil && *d != *p {
			fmt.Fprintf(stderr, "bench: daemon-ingest ended with %+v, plant7d with %+v\n", *d, *p)
			code = 1
		}
		fmt.Fprintf(stdout, "set %d of %d (seed %d, order %s)\n", set+1, sets, o.seed, strings.Join(order, ", "))
		printTable(stdout, results)
		all = append(all, results)
	}
	if update {
		g, err := loadGoldens()
		if err == nil {
			outs := map[string]outcome{}
			for name, cr := range all[0] {
				outs[name] = *cr.outcome
			}
			err = g.update(o.seed, outs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: update goldens: %v\n", err)
			return 1
		}
	}
	if sets >= 2 && !o.traced {
		ok, err := checkSpreads(stdout, all)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// printTable prints one set's metrics, one row per metric and one column
// per workload.
func printTable(w io.Writer, results map[string]childResult) {
	names := workloadNames()
	units := map[string]string{}
	for _, cr := range results {
		for m, v := range cr.result.Metrics {
			units[m] = v.Unit
		}
	}
	metrics := make([]string, 0, len(units))
	for m := range units {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	fmt.Fprintf(w, "%-32s %-9s", "metric", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %15s", n)
	}
	fmt.Fprintln(w)
	for _, m := range metrics {
		fmt.Fprintf(w, "%-32s %-9s", m, units[m])
		for _, n := range names {
			fmt.Fprintf(w, " %15.6g", results[n].result.Metrics[m].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-42s", "correct (failed/attempted)")
	for _, n := range names {
		r := results[n].result
		fmt.Fprintf(w, " %15s", fmt.Sprintf("%t %d/%d", r.Correct, r.Failed, r.Attempted))
	}
	fmt.Fprintln(w)
}

// benchmarkFile is the part of BENCHMARK.json the repeatability check
// reads: each end-to-end metric's bound and direction.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// checkSpreads applies the benchmark contract's acceptance check to the
// sets, with each set as one run: for every workload and end-to-end
// metric it prints the spread of the values, the interquartile range over
// the median, and how much worse the median of the later half of the sets
// reads than that of the earlier half. It reports whether every spread
// but setup_s's, and every worsening, is within the metric's bound.
func checkSpreads(w io.Writer, sets []map[string]childResult) (bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ok := true
	half := len(sets) / 2
	fmt.Fprintf(w, "across %d sets: spread = interquartile range / median (not checked for setup_s); worse = median of sets %d-%d against sets 1-%d\n",
		len(sets), half+1, len(sets), half)
	fmt.Fprintf(w, "%-15s %-14s %8s %8s %7s  values\n", "workload", "metric", "spread", "worse", "bound")
	for _, name := range workloadNames() {
		for _, m := range bf.EndToEnd {
			var vals []float64
			for _, s := range sets {
				vals = append(vals, s[name].result.Metrics[m.Name].Value)
			}
			sp, worse, within := accept(vals, m.Name == "setup_s", m.Better == "higher", m.Bound)
			verdict := ""
			if !within {
				verdict = "  BREACH"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-14s %7.2f%% %7.2f%% %6.0f%%  %v%s\n", name, m.Name, 100*sp, 100*worse, 100*m.Bound, vals, verdict)
		}
	}
	return ok, nil
}

// accept is the contract's acceptance check on one metric's values, one
// per run in run order: their spread, how much worse the median of the
// later half reads than that of the earlier half, and whether both are
// within bound. A set-up time's spread is not checked.
func accept(vals []float64, setup, higherBetter bool, bound float64) (sp, worse float64, ok bool) {
	sp = spread(vals)
	half := len(vals) / 2
	early, late := median(vals[:half]), median(vals[half:])
	worse = (late - early) / early
	if higherBetter {
		worse = -worse
	}
	return sp, worse, (setup || sp <= bound) && worse <= bound
}
