package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cablevod/internal/core"
	"cablevod/internal/eventq"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
	"cablevod/internal/universe"
)

// plant is an engine configuration plus the population, catalog and
// faults every fresh engine of a workload is built with.
type plant struct {
	cfg    core.Config
	w      core.Workload
	faults []core.Disruptor
}

func (p plant) build() (*core.System, error) {
	sys, err := core.NewSystem(p.cfg, p.w)
	if err != nil {
		return nil, err
	}
	for _, f := range p.faults {
		if err := sys.Disrupt(f); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// population is the dense subscriber population 0..n-1 the synthetic
// workloads draw from.
func population(n int) []trace.UserID {
	users := make([]trace.UserID, n)
	for i := range users {
		users[i] = trace.UserID(i)
	}
	return users
}

// hourStream is a source of record batches: a generating *synth.Stream,
// or a replay of batches built in set-up.
type hourStream interface {
	Done() bool
	NextHour() ([]trace.Record, synth.HourInfo, error)
}

// replay serves pre-built batches through the hourStream interface.
type replay struct {
	batches [][]trace.Record
	i       int
}

func (r *replay) Done() bool { return r.i >= len(r.batches) }

func (r *replay) NextHour() ([]trace.Record, synth.HourInfo, error) {
	b := r.batches[r.i]
	r.i++
	return b, synth.HourInfo{}, nil
}

// skip consumes n batches, regenerating them on a generating stream.
func skip(s hourStream, n int) error {
	for i := 0; i < n && !s.Done(); i++ {
		if _, _, err := s.NextHour(); err != nil {
			return err
		}
	}
	return nil
}

// engineStats is what one engine pass observed.
type engineStats struct {
	records   int
	elapsed   time.Duration // NewSystem through Close
	submits   []time.Duration
	perKrec   []time.Duration // submits scaled to 1,000 records
	snapshots []time.Duration
	heap      float64 // engine live heap in bytes, with measureHeap
	newSystem time.Duration
	close     time.Duration
	out       outcome
}

// passOptions shapes one engine pass.
type passOptions struct {
	// snapEvery takes a Snapshot every this many batches; every pass also
	// takes one after its last batch.
	snapEvery int
	// digest ends the pass with the canonical digest of the final state,
	// as a long run's last checkpoint does.
	digest bool
	// measureHeap reads the engine's live heap after the last batch, with
	// the engine still open, outside the pass's time.
	measureHeap bool
}

// enginePass builds a fresh engine, submits each batch feed yields with
// one SubmitBatch call, takes Snapshots, and closes the engine.
func (r *run) enginePass(p plant, feed hourStream, o passOptions, tr *tracer, parent int64) (engineStats, error) {
	var st engineStats
	_, generates := feed.(*synth.Stream)
	var base float64
	if o.measureHeap {
		base = liveHeap()
	}
	start := time.Now()
	t := tr.begin("core.new_system", parent)
	sys, err := p.build()
	st.newSystem = t.end()
	if err != nil {
		return st, err
	}
	for h := 1; !feed.Done(); h++ {
		var recs []trace.Record
		if generates {
			t := tr.begin("synth.next_hour", parent)
			recs, _, err = feed.NextHour()
			t.end()
		} else {
			recs, _, err = feed.NextHour()
		}
		if err != nil {
			return st, err
		}
		if len(recs) > 0 {
			r.attempted++
			t := tr.begin("core.submit_batch", parent)
			err := sys.SubmitBatch(recs)
			d := t.end()
			if err != nil {
				r.failed++
				return st, err
			}
			st.submits = append(st.submits, d)
			st.perKrec = append(st.perKrec, perKrec(d, len(recs)))
			st.records += len(recs)
		}
		if feed.Done() || (o.snapEvery > 0 && h%o.snapEvery == 0) {
			t := tr.begin("core.snapshot", parent)
			sys.Snapshot()
			st.snapshots = append(st.snapshots, t.end())
		}
	}
	var excluded time.Duration
	if o.measureHeap {
		t := time.Now()
		st.heap = liveHeap() - base
		excluded = time.Since(t)
	}
	digest := ""
	if o.digest {
		t := tr.begin("core.state.export", parent)
		state, err := sys.ExportState()
		t.end()
		if err != nil {
			return st, err
		}
		t = tr.begin("universe.digest", parent)
		digest, err = universe.StateDigest(state)
		t.end()
		if err != nil {
			return st, err
		}
	}
	t = tr.begin("core.close", parent)
	res, err := sys.Close()
	st.close = t.end()
	st.elapsed = time.Since(start) - excluded
	if err != nil {
		return st, err
	}
	st.out = outcomeOf(res, digest)
	return st, nil
}

// perKrec scales a submission's latency to 1,000 records, so submissions
// of different sizes compare.
func perKrec(d time.Duration, records int) time.Duration {
	return d * 1000 / time.Duration(records)
}

// submitAll feeds up to limit batches of feed to sys.
func (r *run) submitAll(sys *core.System, feed hourStream, limit int) error {
	for i := 0; i < limit && !feed.Done(); i++ {
		recs, _, err := feed.NextHour()
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			continue
		}
		r.attempted++
		if err := sys.SubmitBatch(recs); err != nil {
			r.failed++
			return err
		}
	}
	return nil
}

// checkpoint runs the first done batches of the workload on a fresh
// engine and saves the engine's state to path.
func (r *run) checkpoint(p plant, newFeed func() (hourStream, error), done int, path string) error {
	sys, err := p.build()
	if err != nil {
		return err
	}
	feed, err := newFeed()
	if err != nil {
		return err
	}
	if err := r.submitAll(sys, feed, done); err != nil {
		return err
	}
	st, err := sys.ExportState()
	if err != nil {
		return err
	}
	return core.SaveStateFile(path, st)
}

func loadSystem(path string) (*core.System, error) {
	st, err := core.LoadStateFile(path)
	if err != nil {
		return nil, err
	}
	return core.RestoreSystem(st, core.RestoreOptions{})
}

// resumeFrom loads and restores the engine saved at path, then brings a
// fresh feed to the checkpoint's done batches, regenerating them for a
// generated workload: what a user waits on before a resumed run takes
// its next record.
func resumeFrom(path string, newFeed func() (hourStream, error), done int) (*core.System, hourStream, error) {
	sys, err := loadSystem(path)
	if err != nil {
		return nil, nil, fmt.Errorf("resume: %w", err)
	}
	feed, err := newFeed()
	if err != nil {
		return nil, nil, err
	}
	return sys, feed, skip(feed, done)
}

// sampleResume times one resume from a collected heap, for resume_s.
func (r *run) sampleResume(path string, newFeed func() (hourStream, error), done int) error {
	runtime.GC()
	start := time.Now()
	_, _, err := resumeFrom(path, newFeed, done)
	r.resumeTimes = append(r.resumeTimes, r.timed(time.Since(start).Seconds()))
	return err
}

// finishResumed resumes from the checkpoint once more, untimed, runs the
// rest of the workload on the restored engine, and checks that it reaches
// the uninterrupted run's outcome. A traced run also probes the
// checkpoint layer on the final state.
func (r *run) finishResumed(path string, newFeed func() (hourStream, error), done int) error {
	sys, feed, err := resumeFrom(path, newFeed, done)
	if err != nil {
		return err
	}
	if err := r.submitAll(sys, feed, math.MaxInt); err != nil {
		return err
	}
	if r.traced {
		if err := r.stateProbe(sys); err != nil {
			return err
		}
	}
	res, err := sys.Close()
	if err != nil {
		return err
	}
	r.check("resumed run", outcomeOf(res, ""))
	return nil
}

// stateProbe times the checkpoint layer on an engine's state, best of
// three isolated calls each: export, canonical digest, save, load and
// restore.
func (r *run) stateProbe(sys *core.System) error {
	probe := r.tr.begin("bench.probe.state", 0)
	defer probe.end()
	path := filepath.Join(r.dir, "probe.snap")
	best := map[string]time.Duration{}
	keep := func(name string, d time.Duration) {
		if b, ok := best[name]; !ok || d < b {
			best[name] = d
		}
	}
	for i := 0; i < 3; i++ {
		t := r.tr.begin("core.state.export", probe.id)
		st, err := sys.ExportState()
		keep("core.state.export_ms", t.end())
		if err != nil {
			return err
		}
		t = r.tr.begin("universe.digest", probe.id)
		_, err = universe.StateDigest(st)
		keep("universe.digest_ms", t.end())
		if err != nil {
			return err
		}
		t = r.tr.begin("core.state.save", probe.id)
		err = core.SaveStateFile(path, st)
		keep("core.state.save_ms", t.end())
		if err != nil {
			return err
		}
		t = r.tr.begin("core.state.load", probe.id)
		st, err = core.LoadStateFile(path)
		keep("core.state.load_ms", t.end())
		if err != nil {
			return err
		}
		t = r.tr.begin("core.state.restore", probe.id)
		_, err = core.RestoreSystem(st, core.RestoreOptions{})
		keep("core.state.restore_ms", t.end())
		if err != nil {
			return err
		}
	}
	for name, d := range best {
		r.set(name, "ms", float64(d)/float64(time.Millisecond))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("core.state.bytes", "B", float64(fi.Size()))
	return nil
}

// streamProbe generates the workload's whole stream hour by hour, timing
// NextHour, and returns its records.
func (r *run) streamProbe(newStream func() (*synth.Stream, error)) ([]trace.Record, error) {
	probe := r.tr.begin("bench.probe.synth", 0)
	defer probe.end()
	s, err := newStream()
	if err != nil {
		return nil, err
	}
	var all []trace.Record
	var hours []time.Duration
	var total time.Duration
	for !s.Done() {
		t := r.tr.begin("synth.next_hour", probe.id)
		recs, _, err := s.NextHour()
		d := t.end()
		if err != nil {
			return nil, err
		}
		hours = append(hours, d)
		total += d
		all = append(all, recs...)
	}
	r.set("synth.hour_ms_p50", "ms", quantile(ms(hours), 0.5))
	r.set("synth.hour_ms_p95", "ms", quantile(ms(hours), 0.95))
	r.set("synth.rec_per_s", "rec/s", float64(len(all))/total.Seconds())
	return all, nil
}

// segmentChain is one session's chain of segment-boundary events in the
// event-queue probe: each schedules the next until the session ends.
type segmentChain struct {
	q   *eventq.Queue
	end time.Duration
}

func (c *segmentChain) Execute(now time.Duration) {
	if next := now + units.SegmentDuration; next < c.end {
		c.q.Schedule(next, eventq.PrioritySegment, c)
	}
}

// sessionEnd is the probe's session-end event; it does nothing.
var sessionEnd = eventq.Func(func(time.Duration) {})

// eventqProbe replays the workload's schedule shape on a bare event
// queue, best of three: each record schedules its session end and a chain
// of segment events at segment boundaries, and the queue drains to each
// session start the way an engine shard does before starting a session.
func (r *run) eventqProbe(recs []trace.Record) {
	probe := r.tr.begin("bench.probe.eventq", 0)
	defer probe.end()
	best, events := math.Inf(1), uint64(0)
	for rep := 0; rep < 3; rep++ {
		q := eventq.New()
		chains := make([]segmentChain, len(recs))
		t := r.tr.begin("eventq.replay", probe.id)
		for i, rec := range recs {
			q.RunBefore(rec.Start, eventq.PrioritySessionStart)
			q.Schedule(rec.End(), eventq.PrioritySessionEnd, sessionEnd)
			first := rec.Start + units.SegmentDuration - rec.Offset%units.SegmentDuration
			if first < rec.End() {
				chains[i] = segmentChain{q: q, end: rec.End()}
				q.Schedule(first, eventq.PrioritySegment, &chains[i])
			}
		}
		q.Run()
		d := t.end()
		events = q.Executed()
		best = min(best, float64(d.Nanoseconds())/float64(events))
	}
	r.set("eventq.ns_per_event", "ns", best)
	r.set("eventq.events_per_rec", "count/rec", float64(events)/float64(len(recs)))
}

// sessionStartProbe replays neighborhood 0's session starts through a
// fresh engine's index server, best of three: the cache policy and
// placement work of every request, without segments or events.
func (r *run) sessionStartProbe(p plant, recs []trace.Record) error {
	probe := r.tr.begin("bench.probe.session_start", 0)
	defer probe.end()
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		sys, err := p.build()
		if err != nil {
			return err
		}
		var mine []trace.Record
		for _, rec := range recs {
			if nb, ok := sys.Topology().Home(rec.User); ok && nb.ID() == 0 {
				mine = append(mine, rec)
			}
		}
		if len(mine) == 0 {
			return fmt.Errorf("session-start probe: neighborhood 0 has no sessions")
		}
		srv := sys.Server(0)
		t := r.tr.begin("core.session_start_replay", probe.id)
		for _, rec := range mine {
			srv.OnSessionStart(rec.Program, rec.Start)
		}
		best = min(best, float64(t.end().Nanoseconds())/float64(len(mine)))
	}
	r.set("core.session_start_ns", "ns", best)
	return nil
}

// reportEngine sets the core layer's timings from engine passes.
func (r *run) reportEngine(passes []engineStats) {
	var news, closes, submits, snaps []float64
	var submitTime time.Duration
	records := 0
	for _, p := range passes {
		news = append(news, ms([]time.Duration{p.newSystem})...)
		closes = append(closes, ms([]time.Duration{p.close})...)
		submits = append(submits, ms(p.submits)...)
		snaps = append(snaps, ms(p.snapshots)...)
		for _, d := range p.submits {
			submitTime += d
		}
		records += p.records
	}
	r.set("core.new_system_ms", "ms", median(news))
	r.set("core.submit_ms_p50", "ms", quantile(submits, 0.5))
	r.set("core.submit_ms_p95", "ms", quantile(submits, 0.95))
	r.set("core.ns_per_rec", "ns", float64(submitTime.Nanoseconds())/float64(records))
	r.set("core.close_ms", "ms", median(closes))
	r.set("core.metrics_snapshot_ms_p50", "ms", median(snaps))
}

// reportCounts sets the exact per-record work counts of the run's
// outcome.
func (r *run) reportCounts() {
	c := r.first.Counters
	per := func(n uint64) float64 { return ratio(n, c.Sessions) }
	r.set("core.segments_per_rec", "count/rec", per(c.SegmentRequests))
	r.set("core.hit_ratio", "ratio", ratio(c.Hits, c.SegmentRequests))
	r.set("core.admissions_per_rec", "count/rec", per(c.Admissions))
	r.set("core.evictions_per_rec", "count/rec", per(c.Evictions))
	r.set("core.evictions_per_admission", "ratio", ratio(c.Evictions, c.Admissions))
	r.set("core.fills_per_rec", "count/rec", per(c.Fills))
	r.set("core.peer_busy_per_rec", "count/rec", per(c.MissPeerBusy))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
