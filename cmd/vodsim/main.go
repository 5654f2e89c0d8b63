// Command vodsim runs one cooperative-cache VoD simulation over a trace
// (from a file or freshly synthesized) and prints the paper's metrics:
// peak-hour server load with 5%/95% quantiles, savings against the
// uncached baseline, hit ratios, and coax utilization.
//
// Usage:
//
//	vodsim -synth -neighborhood 1000 -storage 10GB -strategy lfu
//	vodsim -strategy-list                        # registered caching strategies
//	vodsim -synth -strategy gdsf                 # pick one from the zoo
//	vodsim -trace trace.gob -strategy oracle -warmup 7
//	vodsim -synth -replicas 2 -prefix-segments 4 -max-streams 4
//	vodsim -synth -live 1        # drive the online engine, daily snapshots
//	vodsim -synth -parallel 8    # run neighborhood shards on 8 workers
//	vodsim -scenario-list        # registered live-workload scenarios
//	vodsim -scenario flash-crowd -checkpoint 6   # drive one, 6h checkpoints
//	vodsim -scenario premiere -snapshot-json     # machine-readable checkpoints
//	vodsim -scenario-file testdata/scenarios/flash-crowd.yaml  # declarative spec + assertions
//	vodsim -serve :8080 -scenario flash-crowd -accel 86400     # live daemon: /metrics, /snapshot, ...
//	vodsim -serve :8080 -synth -live 1                         # ingest daemon self-fed day by day
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cablevod"
	"cablevod/internal/core"
	"cablevod/internal/units"
	"cablevod/internal/universe"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vodsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (runErr error) {
	fs := flag.NewFlagSet("vodsim", flag.ContinueOnError)
	var (
		path     = fs.String("trace", "", "trace file (.csv or .gob)")
		synth    = fs.Bool("synth", false, "synthesize the default trace instead of loading one")
		days     = fs.Int("synth-days", 14, "days for -synth")
		users    = fs.Int("synth-users", 41_698, "users for -synth")
		programs = fs.Int("synth-programs", 8_278, "programs for -synth")
		seed     = fs.Uint64("seed", 1, "seed for -synth")

		neighborhood = fs.Int("neighborhood", 1000, "subscribers per headend")
		storage      = fs.String("storage", "10GB", "per-peer cache contribution")
		strategyName = fs.String("strategy", "lfu", "caching strategy (see -strategy-list)")
		strategyList = fs.Bool("strategy-list", false, "list registered caching strategies and exit")
		history      = fs.Duration("history", 72*time.Hour, "LFU history window")
		lag          = fs.Duration("lag", 0, "global popularity publication lag")
		warmup       = fs.Int("warmup", 7, "days excluded from statistics")
		fillMode     = fs.String("fill", "immediate", "segment availability: immediate or on-broadcast")
		replicas     = fs.Int("replicas", 1, "copies kept per cached segment")
		prefixSegs   = fs.Int("prefix-segments", 0, "cache only the first N segments per program (0 = whole program)")
		maxStreams   = fs.Int("max-streams", 0, "concurrent stream limit per set-top box (0 = default 2)")
		live         = fs.Int("live", 0, "drive the online engine, printing a snapshot every N simulated days")
		parallel     = fs.Int("parallel", 0, "worker pool for concurrent neighborhood shards (0 = GOMAXPROCS, 1 = serial)")

		serveAddr    = fs.String("serve", "", "run as a live service daemon on ADDR (e.g. :8080): /metrics, /snapshot, /healthz, /submit, /scenario/status; composes with -scenario, -scenario-file, or a -synth/-trace ingest plant (add -live N to self-feed it in N-day batches)")
		scenarioName = fs.String("scenario", "", "drive a registered live-workload scenario (see -scenario-list); sized by the -synth-* flags")
		scenarioFile = fs.String("scenario-file", "", "run a declarative scenario spec (YAML/JSON, see SCENARIOS.md) and gate on its assertions")
		scenarioList = fs.Bool("scenario-list", false, "list registered scenarios and exit")
		checkpoint   = fs.Int("checkpoint", 24, "simulated hours between scenario checkpoints (0 = none; a -scenario-file spec with assertions must then set its own cadence — assertions never pass over zero checkpoints)")
		accel        = fs.Float64("accel", 0, "cap scenario virtual time at N seconds per wall second (0 = unthrottled)")
		snapJSON     = fs.Bool("snapshot-json", false, "print snapshots and checkpoints as JSON lines")
		snapOut      = fs.String("snapshot-out", "", "save the engine state to FILE mid-run at -snapshot-at (with -scenario or -scenario-file); the file embeds the remaining workload, so it resumes or forks standalone")
		snapAt       = fs.Int("snapshot-at", 0, "simulated hour of the -snapshot-out state export")
		snapIn       = fs.String("snapshot-in", "", "load a state file saved by -snapshot-out and resume the run to the end (or race strategies from it: -fork)")
		forkList     = fs.String("fork", "", "comma-separated caching strategies to fork from the -snapshot-in state and race through the same incident, printing a comparative report")

		profileDir = fs.String("profile-dir", "", "capture cpu.pprof and heap.pprof for the run into DIR and print the top-10 hot symbols (bounded runs only; with -serve use -pprof)")
		pprofFlag  = fs.Bool("pprof", false, "with -serve: expose Go's /debug/pprof endpoints on the daemon for live profiling")

		scale      = fs.String("scale", "", "run a universe scale tier (see -scale-list); the tier sizes the plant and workload, engine flags (-strategy, -storage, ...) still apply, and explicit -seed/-synth-days override the tier")
		scaleList  = fs.Bool("scale-list", false, "list universe scale tiers and exit")
		longrun    = fs.Bool("longrun", false, "with -scale: split the run into resumable checkpointed legs; re-run the same command to resume")
		longrunDir = fs.String("longrun-dir", "", "checkpoint directory for -longrun (default .longrun-<tier>)")
		legHours   = fs.Int("leg", 24, "simulated hours per -longrun leg (checkpoint cadence)")
		maxLegs    = fs.Int("legs", 0, "with -longrun: stop after N legs this invocation (0 = run to completion)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofFlag && *serveAddr == "" {
		return fmt.Errorf("-pprof exposes live profiles on the daemon; it needs -serve ADDR")
	}
	if *profileDir != "" && *serveAddr != "" {
		return fmt.Errorf("-profile-dir captures a bounded run; profile a daemon live via -pprof instead")
	}
	// stopProfile finalizes a -profile-dir capture; the deferred call
	// covers every run path's return.
	stopProfile := func() error { return nil }
	defer func() {
		if perr := stopProfile(); perr != nil && runErr == nil {
			runErr = perr
		}
	}()

	if *scenarioList {
		for _, info := range cablevod.ListScenarios() {
			fmt.Printf("%-16s %s\n", info.Name, info.Description)
		}
		return nil
	}
	if *strategyList {
		for _, info := range cablevod.ListStrategies() {
			fmt.Printf("%-12s %s\n", info.Name, info.Description)
		}
		return nil
	}
	if *scaleList {
		for _, t := range universe.Tiers() {
			fmt.Printf("%-10s %s\n", t.Name, t.Description)
		}
		return nil
	}
	if *longrun && *scale == "" {
		return fmt.Errorf("-longrun splits a universe run into legs; it needs -scale TIER")
	}
	if *scale != "" {
		if *synth || *path != "" || *scenarioName != "" || *scenarioFile != "" || *serveAddr != "" || *live > 0 || *snapIn != "" || *snapOut != "" {
			return fmt.Errorf("-scale builds its own plant and workload; it does not compose with -trace, -synth, -scenario, -scenario-file, -serve, -live, or the snapshot flags")
		}
	}

	if *snapIn != "" {
		if *scenarioName != "" || *scenarioFile != "" || *synth || *path != "" || *serveAddr != "" {
			return fmt.Errorf("-snapshot-in replays a saved engine state; it composes only with -fork and -parallel")
		}
		if *forkList != "" {
			return runFork(*snapIn, *forkList, *parallel)
		}
		return runResume(*snapIn, *parallel)
	}
	if *forkList != "" {
		return fmt.Errorf("-fork needs a warm state to branch from: -snapshot-in FILE")
	}
	if *snapOut != "" {
		if *scenarioName == "" && *scenarioFile == "" {
			return fmt.Errorf("-snapshot-out captures a mid-run scenario state; it needs -scenario or -scenario-file")
		}
		if *snapAt <= 0 {
			return fmt.Errorf("-snapshot-out needs a positive -snapshot-at hour")
		}
	}

	var tr *cablevod.Trace
	var err error
	switch {
	case *scenarioName != "" && *scenarioFile != "":
		return fmt.Errorf("-scenario and -scenario-file are mutually exclusive")
	case *scale != "":
		// The universe tier generates its own workload lazily; no trace.
	case *scenarioName != "", *scenarioFile != "":
		// The scenario generates its own workload lazily; no trace.
	case *synth:
		opts := cablevod.DefaultTraceOptions()
		opts.Days = *days
		opts.Users = *users
		opts.Programs = *programs
		opts.Seed = *seed
		tr, err = cablevod.GenerateTrace(opts)
	case *path != "":
		tr, err = cablevod.LoadTrace(*path)
	default:
		if *serveAddr != "" {
			return fmt.Errorf("-serve needs a workload: -scenario, -scenario-file, or a -synth/-trace plant for ingest")
		}
		return fmt.Errorf("need -trace FILE or -synth")
	}
	if err != nil {
		return err
	}

	// Built-in names parse to the enum; anything else must be a
	// registered custom strategy, selected by name.
	var strategy cablevod.Strategy
	var customName string
	if parsed, err := core.ParseStrategy(*strategyName); err == nil {
		strategy = parsed
	} else if registered(*strategyName) {
		customName = *strategyName
	} else {
		return fmt.Errorf("unknown strategy %q (see -strategy-list; registered: %s)",
			*strategyName, strings.Join(cablevod.Strategies(), ", "))
	}
	perPeer, err := units.ParseByteSize(*storage)
	if err != nil {
		return err
	}
	var fill cablevod.FillMode
	switch *fillMode {
	case "immediate":
		fill = cablevod.FillImmediate
	case "on-broadcast":
		fill = cablevod.FillOnBroadcast
	default:
		return fmt.Errorf("unknown fill mode %q", *fillMode)
	}

	cfg := cablevod.Config{
		NeighborhoodSize:  *neighborhood,
		PerPeerStorage:    perPeer,
		MaxStreamsPerPeer: *maxStreams,
		Strategy:          strategy,
		StrategyName:      customName,
		LFUHistory:        *history,
		GlobalLag:         *lag,
		Fill:              fill,
		Replicas:          *replicas,
		PrefixSegments:    *prefixSegs,
		WarmupDays:        *warmup,
		Parallelism:       *parallel,
	}
	// The capture starts after workload synthesis so trace generation
	// does not drown the Submit path in the CPU profile.
	if *profileDir != "" {
		stopProfile, err = startProfile(*profileDir)
		if err != nil {
			return err
		}
	}

	if *scale != "" {
		tier, err := universe.Tier(*scale)
		if err != nil {
			return err
		}
		// Explicitly-passed -seed and -synth-days override the tier's
		// workload values; plant flags do not — the tier defines the
		// plant, that being its point.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed":
				tier.Seed = *seed
			case "synth-days":
				tier.Days = *days
			}
		})
		if err := tier.Validate(); err != nil {
			return err
		}
		if *longrun {
			return runScaleLongRun(tier, cfg, *longrunDir, *legHours, *maxLegs)
		}
		start := time.Now()
		res, err := runScale(tier, cfg)
		if err != nil {
			return err
		}
		printResult(res, time.Since(start))
		return nil
	}

	if *serveAddr != "" {
		return runServe(cfg, serveRunOptions{
			addr: *serveAddr, scenario: *scenarioName, specFile: *scenarioFile,
			trace: tr, feedDays: *live,
			users: *users, programs: *programs, days: *days, seed: *seed,
			checkpointHours: *checkpoint, accel: *accel, json: *snapJSON,
			pprof: *pprofFlag,
		})
	}

	start := time.Now()
	var res *cablevod.Result
	switch {
	case *scenarioFile != "":
		res, err = runSpecFile(cfg, *scenarioFile, specFileRunOptions{
			fallback: time.Duration(*checkpoint) * time.Hour,
			accel:    *accel, json: *snapJSON,
			snapshotOut: *snapOut, snapshotAtHours: *snapAt,
		})
	case *scenarioName != "":
		res, err = runScenario(cfg, *scenarioName, scenarioRunOptions{
			users: *users, programs: *programs, days: *days, seed: *seed,
			checkpointHours: *checkpoint, accel: *accel, json: *snapJSON,
			snapshotOut: *snapOut, snapshotAtHours: *snapAt,
		})
	case *live > 0:
		res, err = runLive(cfg, tr, *live, *snapJSON)
	default:
		res, err = cablevod.Run(cfg, tr)
	}
	if err != nil {
		return err
	}
	printResult(res, time.Since(start))
	return nil
}

// scenarioRunOptions carries the CLI knobs of a -scenario run.
type scenarioRunOptions struct {
	users, programs, days int
	seed                  uint64
	checkpointHours       int
	accel                 float64
	json                  bool
	snapshotOut           string
	snapshotAtHours       int
}

// runScenario drives a registered scenario through the live engine,
// printing each checkpoint as it is taken.
func runScenario(cfg cablevod.Config, name string, o scenarioRunOptions) (*cablevod.Result, error) {
	if o.checkpointHours < 0 {
		return nil, fmt.Errorf("negative -checkpoint %d", o.checkpointHours)
	}
	workload := cablevod.DefaultTraceOptions()
	workload.Users, workload.Programs, workload.Days, workload.Seed = o.users, o.programs, o.days, o.seed
	opts := cablevod.ScenarioOptions{
		Workload:     workload,
		Checkpoint:   time.Duration(o.checkpointHours) * time.Hour,
		Acceleration: o.accel,
		OnCheckpoint: func(cp cablevod.ScenarioCheckpoint) { printCheckpoint(cp, o.json) },
	}
	armSnapshot(&opts.SnapshotAt, &opts.OnSnapshot, &opts.SnapshotFuture, o.snapshotOut, o.snapshotAtHours)
	res, _, err := cablevod.RunScenario(name, cfg, opts)
	return res, err
}

// specFileRunOptions carries the CLI knobs of a -scenario-file run.
type specFileRunOptions struct {
	fallback        time.Duration
	accel           float64
	json            bool
	snapshotOut     string
	snapshotAtHours int
}

// runSpecFile runs a declarative scenario spec through the assertion
// harness: checkpoints print as they are taken, then the pass/fail
// report. A violated assertion is a command failure (non-zero exit) —
// the CI gate contract.
func runSpecFile(cfg cablevod.Config, path string, o specFileRunOptions) (*cablevod.Result, error) {
	opts := cablevod.SpecRunOptions{
		Checkpoint:   o.fallback,
		Acceleration: o.accel,
		OnCheckpoint: func(cp cablevod.ScenarioCheckpoint) { printCheckpoint(cp, o.json) },
	}
	armSnapshot(&opts.SnapshotAt, &opts.OnSnapshot, &opts.SnapshotFuture, o.snapshotOut, o.snapshotAtHours)
	report, err := cablevod.RunSpecFile(path, cfg, opts)
	if err != nil {
		return nil, err
	}
	fmt.Println()
	report.Render(os.Stdout)
	fmt.Println()
	if !report.Pass() {
		f := report.FirstFailure()
		return nil, fmt.Errorf("scenario spec %s: assertion %s violated: %s", path, f.Label, f.Detail)
	}
	return report.Result, nil
}

// printCheckpoint renders one scenario checkpoint, as a JSON line or a
// phase-labelled snapshot line.
func printCheckpoint(cp cablevod.ScenarioCheckpoint, asJSON bool) {
	if asJSON {
		printJSON(struct {
			AtHours float64          `json:"at_hours"`
			Phases  string           `json:"phases"`
			Metrics cablevod.Metrics `json:"metrics"`
		}{AtHours: cp.At.Hours(), Phases: cp.Phases, Metrics: cp.Metrics})
		return
	}
	label := cp.Phases
	if label == "" {
		label = "-"
	}
	fmt.Printf("[%-10s] ", label)
	printSnapshot(cp.Metrics)
}

// printJSON writes one JSON line to stdout.
func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodsim: marshal snapshot:", err)
		return
	}
	fmt.Println(string(out))
}

// registered reports whether name is in the strategy registry.
func registered(name string) bool {
	for _, s := range cablevod.Strategies() {
		if s == name {
			return true
		}
	}
	return false
}

// runLive drives the long-lived online engine in day-sized batches
// (SubmitBatch fans each batch across the neighborhood shards), printing
// a live metrics snapshot every snapshotDays simulated days and the
// per-neighborhood breakdown at the end of the run.
func runLive(cfg cablevod.Config, tr *cablevod.Trace, snapshotDays int, asJSON bool) (*cablevod.Result, error) {
	cfg.Subscribers = tr.Users()
	cfg.Catalog = cablevod.TraceCatalog(tr)
	cfg.Future = tr
	sys, err := cablevod.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("engine: %d shards (one per neighborhood) on a %d-worker pool\n",
		sys.Shards(), sys.Parallelism())
	emit := func(m cablevod.Metrics) {
		if asJSON {
			printJSON(m)
		} else {
			printSnapshot(m)
		}
	}
	nextDay := snapshotDays
	start := 0
	for i, rec := range tr.Records {
		if day := int(rec.Start / (24 * time.Hour)); day >= nextDay {
			if err := sys.SubmitBatch(tr.Records[start:i]); err != nil {
				return nil, fmt.Errorf("batch starting at record %d: %w", start, err)
			}
			start = i
			emit(sys.Snapshot())
			for nextDay <= day {
				nextDay += snapshotDays
			}
		}
	}
	if err := sys.SubmitBatch(tr.Records[start:]); err != nil {
		return nil, fmt.Errorf("batch starting at record %d: %w", start, err)
	}
	final := sys.Snapshot()
	emit(final)
	if !asJSON {
		printBreakdown(final)
	}
	return sys.Close()
}

// printSnapshot renders one live metrics line.
func printSnapshot(m cablevod.Metrics) {
	fmt.Printf("[day %3.1f] sessions %d (%d active)  hit %5.1f%%  server %6.2f Gb/s avg  coax %5.0f Mb/s avg  cache %3.0f%% of %v  adm %d  evi %d\n",
		m.Now.Hours()/24, m.Counters.Sessions, m.ActiveSessions,
		100*m.HitRatio(), m.ServerRate.Gbps(), m.CoaxRate.Mbps(),
		100*float64(m.CacheUsed)/float64(max(int64(m.CacheCapacity), 1)), m.CacheCapacity,
		m.Counters.Admissions, m.Counters.Evictions)
}

// printBreakdown renders the per-neighborhood shard table of a snapshot.
func printBreakdown(m cablevod.Metrics) {
	fmt.Printf("per-neighborhood breakdown (%d shards):\n", m.Neighborhoods)
	fmt.Printf("  %4s %10s %8s %12s %10s\n", "nb", "sessions", "hit", "coax avg", "cache")
	for _, nb := range m.PerNeighborhood {
		occupancy := 0.0
		if nb.CacheCapacity > 0 {
			occupancy = 100 * float64(nb.CacheUsed) / float64(nb.CacheCapacity)
		}
		fmt.Printf("  %4d %10d %7.1f%% %9.0f Mb/s %9.0f%%\n",
			nb.ID, nb.Sessions, 100*nb.HitRatio, nb.CoaxRate.Mbps(), occupancy)
	}
}

func printResult(res *cablevod.Result, elapsed time.Duration) {
	c := res.Counters
	fmt.Printf("strategy            %v (fill %v)\n", res.Config.StrategyLabel(), res.Config.Fill)
	fmt.Printf("neighborhoods       %d x %d subscribers\n", res.Neighborhoods, res.Config.Topology.NeighborhoodSize)
	fmt.Printf("cache/neighborhood  %v\n", res.Config.TotalCachePerNeighborhood())
	fmt.Printf("trace days          %d (warmup %d)\n", res.Days, res.AppliedWarmup())
	fmt.Println()
	fmt.Printf("server load (peak)  %.2f Gb/s  [p05 %.2f, p95 %.2f]\n",
		res.Server.Mean.Gbps(), res.Server.P05.Gbps(), res.Server.P95.Gbps())
	fmt.Printf("uncached demand     %.2f Gb/s\n", res.Demand.Mean.Gbps())
	fmt.Printf("savings             %.1f%%\n", 100*res.SavingsVsDemand)
	fmt.Printf("segment hit ratio   %.1f%%\n", 100*c.HitRatio())
	fmt.Printf("coax traffic (peak) %.0f Mb/s avg, %.0f Mb/s p95\n",
		res.Coax.Mean.Mbps(), res.Coax.P95.Mbps())
	fmt.Println()
	fmt.Printf("sessions            %d\n", c.Sessions)
	fmt.Printf("segment requests    %d\n", c.SegmentRequests)
	fmt.Printf("  hits              %d\n", c.Hits)
	fmt.Printf("  first-fetch miss  %d\n", c.MissFirstFetch)
	fmt.Printf("  not-cached miss   %d\n", c.MissNotCached)
	fmt.Printf("  unplaced miss     %d\n", c.MissUnplaced)
	fmt.Printf("  peer-busy miss    %d\n", c.MissPeerBusy)
	fmt.Printf("  broadcast fills   %d\n", c.Fills)
	fmt.Printf("elapsed             %v\n", elapsed.Round(time.Millisecond))
}
