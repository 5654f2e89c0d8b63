package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/hfc"
	"cablevod/internal/scenario"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
	"cablevod/internal/universe"
)

// size holds every knob that scales the workloads: fullSize is the
// benchmark, the smoke test runs a tiny one.
type size struct {
	users int // plant7d, flash-tight and daemon-ingest subscribers

	metroUsers         int
	metroNeighborhoods int
	metroDays          int
	metroLeg           time.Duration

	batch        int // records per submission: one SubmitBatch call or one /submit body
	openBatches  int // bodies per daemon-ingest pass sent open loop
	probeBatches int // bodies the serve probe of a traced run sends
}

// fullSize is sized for a 2-core machine: the engine runs on one worker,
// and the daemon's load comes from at most two goroutines.
var fullSize = size{
	users:      41_698,
	metroUsers: 25_000, metroNeighborhoods: 25, metroDays: 7,
	metroLeg: 24 * time.Hour,
	batch:    1000, openBatches: 100, probeBatches: 100,
}

const (
	// plantDays is the span of the plant7d, flash-tight and daemon-ingest
	// traces.
	plantDays = 7
	// metroStopAfter is how many legs the first LongRun call of a
	// metro-longrun pass runs before the second call resumes it.
	metroStopAfter = 3
)

// workload is one named set of inputs and how a run measures it.
type workload struct {
	name string
	run  func(*run) error
}

// workloads in the order a full run takes them.
var workloads = []workload{
	{"plant7d", plant7d},
	{"flash-tight", flashTight},
	{"metro-longrun", metroLongRun},
	{"daemon-ingest", daemonIngest},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// chunk cuts recs into batches of n records.
func chunk(recs []trace.Record, n int) [][]trace.Record {
	var out [][]trace.Record
	for i := 0; i < len(recs); i += n {
		out = append(out, recs[i:min(i+n, len(recs))])
	}
	return out
}

// plantConfig is the fixed BENCH plant's engine: 1,000-subscriber
// neighborhoods, 10 GB per peer, LFU, two warm-up days, immediate fill,
// one worker.
func plantConfig() core.Config {
	return core.Config{
		Topology:    hfc.Config{NeighborhoodSize: 1000, PerPeerStorage: 10 * units.GB},
		Strategy:    core.StrategyLFU,
		WarmupDays:  2,
		Fill:        core.FillImmediate,
		Parallelism: 1,
	}
}

// synthConfig is the paper-calibrated generator at the run's population,
// span and seed, with the catalog scaled to the population.
func (r *run) synthConfig() synth.Config {
	c := synth.DefaultConfig()
	c.Seed, c.Users, c.Programs, c.Days = r.seed, r.sz.users, universe.ScaledCatalog(r.sz.users), plantDays
	return c
}

func (r *run) plantStream() (*synth.Stream, error) {
	return synth.NewStream(r.synthConfig(), synth.Hooks{})
}

// synthesizePlant generates the BENCH plant's trace, one batch per
// virtual hour, and the plant it runs on.
func (r *run) synthesizePlant() ([][]trace.Record, plant, error) {
	s, err := r.plantStream()
	if err != nil {
		return nil, plant{}, err
	}
	var hours [][]trace.Record
	for !s.Done() {
		recs, _, err := s.NextHour()
		if err != nil {
			return nil, plant{}, err
		}
		hours = append(hours, recs)
	}
	return hours, plant{cfg: plantConfig(), w: core.Workload{Users: population(r.sz.users), Lengths: s.Lengths()}}, nil
}

// plant7d replays the BENCH plant's trace, synthesized in set-up, one
// SubmitBatch per virtual hour: the engine hot path with no generation,
// I/O or HTTP.
func plant7d(r *run) error {
	var hours [][]trace.Record
	var p plant
	if err := r.setup(func() (func() error, error) {
		var err error
		if hours, p, err = r.synthesizePlant(); err != nil {
			return nil, err
		}
		_, err = p.build()
		return nil, err
	}); err != nil {
		return err
	}
	newFeed := func() (hourStream, error) { return &replay{batches: hours}, nil }
	return r.engineWorkload(p, newFeed, len(hours), passOptions{}, r.plantStream)
}

// engineWorkload measures a workload that drives the engine directly:
// timed passes over fresh feeds (the first also reads live_heap_mb), a
// checkpoint after half the batches that a resume sample restarts from
// between passes, a resumed run to the end, and in a traced run the
// layer probes.
func (r *run) engineWorkload(p plant, newFeed func() (hourStream, error), batches int, o passOptions, newStream func() (*synth.Stream, error)) error {
	path := filepath.Join(r.dir, "resume.snap")
	if err := r.checkpoint(p, newFeed, batches/2, path); err != nil {
		return err
	}
	r.resumeSample = func() error { return r.sampleResume(path, newFeed, batches/2) }
	var traced []engineStats
	first := true
	if err := r.passes(func(tr *tracer, parent int64) (passResult, error) {
		start := time.Now()
		feed, err := newFeed()
		if err != nil {
			return passResult{}, err
		}
		built := time.Since(start)
		po := o
		po.measureHeap = first
		st, err := r.enginePass(p, feed, po, tr, parent)
		if err != nil {
			return passResult{}, err
		}
		if first {
			r.set("live_heap_mb", "MB", st.heap/1e6)
			first = false
		}
		r.check("pass", st.out)
		if tr != nil {
			traced = append(traced, st)
		}
		return passResult{records: st.records, elapsed: built + st.elapsed, perKrec: st.perKrec}, nil
	}); err != nil {
		return err
	}
	if err := r.finishResumed(path, newFeed, batches/2); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	r.reportEngine(traced)
	return r.layerProbes(p, newStream, true)
}

// flashConfig is flash-tight's engine: the BENCH plant squeezed to 2 GB
// per peer under LRU with on-broadcast fill, so its caches evict and fill
// on a large share of requests.
func flashConfig() core.Config {
	c := plantConfig()
	c.Topology.PerPeerStorage = 2 * units.GB
	c.Strategy = core.StrategyLRU
	c.Fill = core.FillOnBroadcast
	return c
}

func (r *run) flashStream() (*synth.Stream, []trace.UserID, error) {
	b, err := scenario.Lookup("flash-crowd")
	if err != nil {
		return nil, nil, err
	}
	return scenario.NewStream(b.Build(r.synthConfig()), flashConfig().Topology)
}

// flashTight drives the built-in flash-crowd scenario through the tight
// plant, generating each virtual hour as it goes and taking a Snapshot
// every six: the cache eviction, placement and fill layers, and stream
// generation with modulator hooks. A pass includes building its stream.
func flashTight(r *run) error {
	newStream := func() (*synth.Stream, error) {
		s, _, err := r.flashStream()
		return s, err
	}
	var p plant
	if err := r.setup(func() (func() error, error) {
		s, users, err := r.flashStream()
		if err != nil {
			return nil, err
		}
		p = plant{cfg: flashConfig(), w: core.Workload{Users: users, Lengths: s.Lengths()}}
		_, err = p.build()
		return nil, err
	}); err != nil {
		return err
	}
	newFeed := func() (hourStream, error) { return newStream() }
	return r.engineWorkload(p, newFeed, 24*plantDays, passOptions{snapEvery: 6}, newStream)
}

// metroTier is the long-run universe: sz.metroUsers subscribers in
// sz.metroNeighborhoods neighborhoods of heterogeneous 4–16 GB boxes,
// with the catalog scaled to the population.
func (r *run) metroTier() universe.Config {
	return universe.Config{
		Name:          "metro",
		Description:   "benchmark long run",
		Subscribers:   r.sz.metroUsers,
		Neighborhoods: r.sz.metroNeighborhoods,
		Catalog:       universe.ScaledCatalog(r.sz.metroUsers),
		Days:          r.sz.metroDays,
		Seed:          r.seed,
		HeteroMin:     4 * units.GB,
		HeteroMax:     16 * units.GB,
	}
}

// metroBase is the engine policy the long run applies to the tier.
var metroBase = core.Config{Strategy: core.StrategyLFU, Parallelism: 1}

// metroPlant is the plant LongRun builds for the tier, for the
// measurements that drive the engine directly.
func metroPlant(tier universe.Config) (plant, func() (*synth.Stream, error), error) {
	cfg := tier.EngineConfig(metroBase)
	newStream := func() (*synth.Stream, error) {
		s, _, err := scenario.NewStream(tier.Spec(), cfg.Topology)
		return s, err
	}
	s, users, err := scenario.NewStream(tier.Spec(), cfg.Topology)
	if err != nil {
		return plant{}, nil, err
	}
	p := plant{cfg: cfg, w: core.Workload{Users: users, Lengths: s.Lengths()}}
	for _, ph := range tier.Spec().Phases {
		for _, f := range ph.Faults {
			p.faults = append(p.faults, f)
		}
	}
	return p, newStream, nil
}

// metroLongRun runs the universe through universe.LongRun in
// checkpointed legs, stopping partway and resuming: the only workload
// that exports, digests, saves, loads and restores engine state.
func metroLongRun(r *run) error {
	tier := r.metroTier()
	var p plant
	var newStream func() (*synth.Stream, error)
	if err := r.setup(func() (func() error, error) {
		var err error
		if p, newStream, err = metroPlant(tier); err != nil {
			return nil, err
		}
		_, err = p.build()
		return nil, err
	}); err != nil {
		return err
	}
	probes := true
	if err := r.passes(func(tr *tracer, parent int64) (passResult, error) {
		pr, err := r.metroRep(tier, newStream, probes, tr, parent)
		probes = false
		return pr, err
	}); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	probe := r.tr.begin("bench.probe.engine", 0)
	s, err := newStream()
	if err != nil {
		return err
	}
	st, err := r.enginePass(p, s, passOptions{digest: true}, r.tr, probe.id)
	probe.end()
	if err != nil {
		return err
	}
	r.check("direct engine run", st.out)
	r.reportEngine([]engineStats{st})
	return r.layerProbes(p, newStream, true)
}

// metroRep runs one long run in a fresh checkpoint directory: a first
// LongRun call stops after metroStopAfter legs and a second resumes it
// to the end. The rep's time covers both calls; each leg is one
// submission unit.
//
// Between the calls an untraced rep times samplesPerPass resumes from
// the stop checkpoint (resume_s). Given probes, the rep also measures the
// live heap at its final checkpoint (live_heap_mb) and, in a traced run,
// the checkpoint layer on its final state. None of that is in the rep's
// time.
func (r *run) metroRep(tier universe.Config, newStream func() (*synth.Stream, error), probes bool, tr *tracer, parent int64) (passResult, error) {
	var pr passResult
	dir, err := os.MkdirTemp(r.dir, "longrun-")
	if err != nil {
		return pr, err
	}
	defer os.RemoveAll(dir)
	statePath := filepath.Join(dir, "state.snap")
	legs := int((time.Duration(tier.Days)*units.Day + r.sz.metroLeg - 1) / r.sz.metroLeg)
	var base float64
	if probes {
		base = liveHeap()
	}
	var call int64
	var last time.Time
	var submitted int
	var excluded time.Duration
	opts := universe.LongRunOptions{Dir: dir, Leg: r.sz.metroLeg, MaxLegs: metroStopAfter}
	opts.OnLeg = func(li universe.LegInfo) {
		now := time.Now()
		if n := li.Submitted - submitted; n > 0 {
			pr.perKrec = append(pr.perKrec, perKrec(now.Sub(last), n))
		}
		submitted = li.Submitted
		tr.record(0, call, "universe.leg", last, now)
		r.attempted++
		if probes && li.Leg == legs {
			r.set("live_heap_mb", "MB", (liveHeap()-base)/1e6)
			excluded = time.Since(now)
		}
		last = time.Now()
	}
	longRun := func() (*universe.LongRunResult, error) {
		t := tr.begin("universe.longrun", parent)
		call, last = t.id, t.start
		res, err := universe.LongRun(tier, metroBase, opts)
		pr.elapsed += t.end()
		return res, err
	}
	if _, err := longRun(); err != nil {
		return pr, err
	}
	if !r.traced {
		newFeed := func() (hourStream, error) { return newStream() }
		for i := 0; i < samplesPerPass; i++ {
			if err := r.sampleResume(statePath, newFeed, metroStopAfter*int(r.sz.metroLeg/time.Hour)); err != nil {
				return pr, err
			}
		}
	}
	opts.MaxLegs = 0
	res, err := longRun()
	if err != nil {
		return pr, err
	}
	if !res.Done {
		return pr, fmt.Errorf("long run stopped after %d legs", res.LegsTotal)
	}
	pr.elapsed -= excluded
	pr.records = res.Submitted
	r.check("long run", outcomeOf(res.Result, res.Digest))
	if probes && r.traced {
		sys, err := loadSystem(statePath)
		if err != nil {
			return pr, err
		}
		return pr, r.stateProbe(sys)
	}
	return pr, nil
}

// daemonIngest feeds the BENCH plant's trace to an ingest daemon over
// loopback HTTP in pre-encoded sz.batch-record bodies: sz.openBatches of
// them, in openWindows stretches spread evenly over the trace, on an
// open-loop schedule at openRate, the rest back to back, while a second
// goroutine scrapes /metrics. The engine serves
// plant7d's records, so only this workload moves with HTTP, JSON decode,
// the submit mutex, per-batch Snapshot publication and telemetry. Its
// resumes restart from a checkpoint the daemon saves through POST
// /snapshot/save after half the bodies.
func daemonIngest(r *run) error {
	var p plant
	var batches [][]trace.Record
	var bodies []body
	if err := r.setup(func() (func() error, error) {
		hours, pl, err := r.synthesizePlant()
		if err != nil {
			return nil, err
		}
		p, batches = pl, chunk(slices.Concat(hours...), r.sz.batch)
		if bodies, err = encodeBodies(batches); err != nil {
			return nil, err
		}
		d, err := startDaemon(p)
		if err != nil {
			return nil, err
		}
		c := loopbackClient()
		defer c.CloseIdleConnections()
		if err := do(c, http.MethodGet, d.url+"/healthz", nil); err != nil {
			d.stop()
			return nil, err
		}
		return d.stop, nil
	}); err != nil {
		return err
	}
	path, err := filepath.Abs(filepath.Join(r.dir, "daemon.snap"))
	if err != nil {
		return err
	}
	if _, err := r.daemonPass(p, bodies[:len(bodies)/2], daemonOptions{savePath: path}, nil, 0); err != nil {
		return err
	}
	newFeed := func() (hourStream, error) { return &replay{batches: batches}, nil }
	r.resumeSample = func() error { return r.sampleResume(path, newFeed, len(batches)/2) }
	var traced []daemonStats
	first := true
	if err := r.passes(func(tr *tracer, parent int64) (passResult, error) {
		st, err := r.daemonPass(p, bodies, daemonOptions{open: r.sz.openBatches, measureHeap: first}, tr, parent)
		if err != nil {
			return passResult{}, err
		}
		if first {
			r.set("live_heap_mb", "MB", st.heap/1e6)
			first = false
		}
		r.check("daemon pass", st.out)
		if tr != nil {
			traced = append(traced, st)
		}
		return passResult{records: st.closedRecords, elapsed: st.closedTime, perKrec: st.openPerKrec}, nil
	}); err != nil {
		return err
	}
	if err := r.finishResumed(path, newFeed, len(batches)/2); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	r.reportServe(traced)
	probe := r.tr.begin("bench.probe.engine", 0)
	st, err := r.enginePass(p, &replay{batches: batches}, passOptions{snapEvery: 1}, r.tr, probe.id)
	probe.end()
	if err != nil {
		return err
	}
	r.check("direct engine run of the daemon's batches", st.out)
	r.reportEngine([]engineStats{st})
	return r.layerProbes(p, r.plantStream, false)
}
