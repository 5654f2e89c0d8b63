package core

import (
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/eventq"
	"cablevod/internal/hfc"
	"cablevod/internal/metrics"
	"cablevod/internal/segment"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// shard is one neighborhood's slice of the engine: the coax segment, its
// index server and pooled cache, a private discrete-event queue, and
// private metric accumulators. Neighborhoods are independent in the
// paper's plant — only central-server load (a sum) and global popularity
// (a batched feed) couple them — so shards execute concurrently on the
// coordinator's worker pool and their accumulators merge exactly:
// meters sum integer bits per hour bucket and counters sum event totals,
// both order-independent.
//
// A shard is single-goroutine: the coordinator hands it to at most one
// worker at a time.
type shard struct {
	sys   *System // read-only after construction (cfg, lengths)
	nb    *hfc.Neighborhood
	is    *IndexServer
	queue *eventq.Queue

	serverMeter *metrics.RateMeter
	demandMeter *metrics.RateMeter
	coaxMeter   *metrics.RateMeter

	counters Counters
	active   int

	// pending is the shard's mailbox: records routed by the coordinator
	// for the current processing window, drained by drainPending.
	pending []trace.Record

	// obsHour/obsServerRate memoize the collector's previous-hour
	// server-meter reading, which changes only at hour boundaries —
	// without this every observed segment event pays a meter lookup.
	// obsHour starts at -1 (no hour cached; hour 0 reads meter hour -1,
	// which is defined as zero anyway, but the cache must still
	// distinguish "unset" from "cached zero" once rates are nonzero).
	obsHour       int64
	obsServerRate units.BitRate

	// Hot per-session state lives in shard-owned slabs — dense arrays
	// carved into records and recycled through freelists — instead of
	// one heap allocation per session and per event. A paper-scale day
	// churns hundreds of thousands of each; at the mega tier the
	// difference is what keeps a million-subscriber run inside
	// laptop-class memory. Slabs are safe because a shard is
	// single-goroutine and both lifetimes are closed: a session dies at
	// its end event (segment events are strictly earlier), an event dies
	// when Execute returns.
	sessSlab []session
	sessFree []*session
	evSlab   []shardEvent
	evFree   []*shardEvent
}

// slabBlock is how many session/event records a slab grows by at a time.
const slabBlock = 256

// newSession returns a zeroed session record from the shard's slab.
func (sh *shard) newSession() *session {
	if n := len(sh.sessFree); n > 0 {
		s := sh.sessFree[n-1]
		sh.sessFree = sh.sessFree[:n-1]
		*s = session{}
		return s
	}
	if len(sh.sessSlab) == 0 {
		sh.sessSlab = make([]session, slabBlock)
	}
	s := &sh.sessSlab[0]
	sh.sessSlab = sh.sessSlab[1:]
	return s
}

// freeSession recycles a session record once nothing references it (its
// end event has executed).
func (sh *shard) freeSession(s *session) {
	sh.sessFree = append(sh.sessFree, s)
}

// newEvent returns a shard event from the slab, ready to schedule.
func (sh *shard) newEvent(kind eventKind, sess *session, peer *hfc.SetTopBox) *shardEvent {
	var e *shardEvent
	if n := len(sh.evFree); n > 0 {
		e = sh.evFree[n-1]
		sh.evFree = sh.evFree[:n-1]
	} else {
		if len(sh.evSlab) == 0 {
			sh.evSlab = make([]shardEvent, slabBlock)
		}
		e = &sh.evSlab[0]
		sh.evSlab = sh.evSlab[1:]
	}
	e.sh, e.kind, e.sess, e.peer = sh, kind, sess, peer
	return e
}

// freeEvent recycles an executed event record.
func (sh *shard) freeEvent(e *shardEvent) {
	e.sess, e.peer = nil, nil
	sh.evFree = append(sh.evFree, e)
}

// submit ingests one session record, advancing the shard's virtual time
// to the record's start. The coordinator has already validated the
// record and routed it here by user homing.
func (sh *shard) submit(rec trace.Record) {
	// Replay every queued event the batch loop would have run before
	// this session-start event, then start the session at its time.
	// Submission counts and the global clock live on the coordinator.
	sh.queue.RunBefore(rec.Start, eventq.PrioritySessionStart)
	sh.startSession(rec, rec.Start)
}

// drainPending submits every mailbox record in order and clears the
// mailbox. Called on a worker goroutine; touches only this shard.
func (sh *shard) drainPending() {
	for _, rec := range sh.pending {
		sh.submit(rec)
	}
	sh.pending = sh.pending[:0]
}

// advanceTo runs the shard's queued events up to the engine-wide clock,
// so cross-shard aggregates line up time-wise with the serial engine.
func (sh *shard) advanceTo(at time.Duration) {
	sh.queue.RunBefore(at, eventq.PrioritySessionStart)
}

// session is one in-flight viewing session.
type session struct {
	rec    trace.Record
	sh     *shard
	viewer *hfc.SetTopBox
	// length is the full playback length of the program.
	length time.Duration
	// firstFetch marks the session that admitted the program under
	// FillImmediate: it streams from the central server while peers are
	// being seeded.
	firstFetch bool
	// key and gen memoize the program's key in the index server's
	// program table, so segment requests reach the placement without a
	// lookup; a recycled key (or the zero memo) costs one lookup, which
	// refreshes the memo.
	key cache.Key
	gen uint32
}

// position returns the program playback position at absolute time t.
func (sess *session) position(t time.Duration) time.Duration {
	return sess.rec.Offset + (t - sess.rec.Start)
}

func (sh *shard) startSession(rec trace.Record, now time.Duration) {
	viewer, _ := sh.nb.PeerOf(rec.User) // membership validated on Submit
	sh.counters.Sessions++
	sh.active++
	if col := sh.sys.collector; col != nil {
		col.ObserveSession(sh.nb.ID(), rec.Program, now)
	}

	// The session value exists before its end event is scheduled so the
	// event can carry it; firstFetch is resolved below, after the index
	// server has seen the request.
	sess := sh.newSession()
	sess.rec = rec
	sess.sh = sh
	sess.viewer = viewer
	sess.length = sh.sys.lengths(rec.Program)

	// The viewer's box holds a receive stream for the whole session.
	viewer.ForceOpenStream()
	sh.queue.Schedule(rec.End(), eventq.PrioritySessionEnd, sh.newEvent(evSessionEnd, sess, nil))

	// The index server observes the request and updates the cache.
	res, key := sh.is.onSessionStart(rec.Program, now)
	if key != cache.NoKey {
		sess.key, sess.gen = key, sh.is.cache.Generation(key)
	}
	if res.Admitted {
		sh.counters.Admissions++
	}
	sh.counters.Evictions += uint64(len(res.Evicted))
	sess.firstFetch = res.Admitted && sh.sys.cfg.Fill == FillImmediate

	sh.processSegment(sess, now)
}

// processSegment serves the segment playing at time now and schedules the
// next segment while the session lasts. Playback may start mid-program
// (Record.Offset) and never runs past the program end.
func (sh *shard) processSegment(sess *session, now time.Duration) {
	pos := sess.position(now)
	if sess.length > 0 && pos >= sess.length {
		return // session outlives the program; nothing left to stream
	}
	idx := segment.At(pos)

	// Program position where this segment's playback ends.
	segEndPos := time.Duration(idx+1) * units.SegmentDuration
	if sess.length > 0 && segEndPos > sess.length {
		segEndPos = sess.length
	}
	segEndAbs := now + (segEndPos - pos)
	watchEnd := sess.rec.End()
	if watchEnd > segEndAbs {
		watchEnd = segEndAbs
	}
	if watchEnd <= now {
		return
	}
	// A broadcast is complete when the whole segment went out: viewing
	// started at the segment boundary and ran to its end.
	complete := pos == time.Duration(idx)*units.SegmentDuration && watchEnd == segEndAbs
	sh.serveSegment(sess, idx, now, watchEnd, complete)

	if sess.rec.End() > segEndAbs && (sess.length == 0 || segEndPos < sess.length) {
		sh.queue.Schedule(segEndAbs, eventq.PrioritySegment, sh.newEvent(evSegment, sess, nil))
	}
}

// serveSegment resolves one segment request: peer broadcast on a hit,
// central server on a miss, with opportunistic cache fill of complete
// miss broadcasts.
func (sh *shard) serveSegment(sess *session, idx int, from, to time.Duration, complete bool) {
	sh.counters.SegmentRequests++
	p := sess.rec.Program

	// Demand accounting: what a cache-less system would pull from the
	// central servers.
	sh.demandMeter.AddTransfer(from, to, units.StreamRate)

	// Every broadcast consumes the same coax bandwidth whether it comes
	// from a peer or the headend (Section VI-B).
	sh.coaxMeter.AddTransfer(from, to, units.StreamRate)
	coax := sh.nb.Coax()
	coaxBusy := coax.Rate() // channel load before this broadcast, for telemetry
	admitted := coax.Admit(units.StreamRate)
	if !admitted {
		sh.counters.CoaxOverloads++
	}
	// The bandwidth release is scheduled once the serving side is known:
	// when a peer stream closes at the same instant, both releases ride
	// one fused evBroadcastEnd instead of two queue entries.

	if sess.firstFetch {
		sh.counters.MissFirstFetch++
		sh.serverMeter.AddTransfer(from, to, units.StreamRate)
		if admitted {
			sh.queue.Schedule(to, eventq.PrioritySessionEnd, sh.newEvent(evCoaxRelease, nil, nil))
		}
		sh.observe(p, from, 0, true, coaxBusy)
		return
	}

	pp := sh.is.placed(sh.is.sessionKey(p, &sess.key, &sess.gen))
	outcome, server := sh.is.serveSegment(pp, idx)
	switch outcome {
	case ServedByPeer:
		sh.counters.Hits++
		sh.scheduleBroadcastEnd(to, admitted, server)
		sh.observe(p, from, outcome, false, coaxBusy)
		return
	case MissNotCached:
		sh.counters.MissNotCached++
	case MissUnplaced:
		sh.counters.MissUnplaced++
	case MissPeerBusy:
		sh.counters.MissPeerBusy++
	}

	// Miss: the central media server streams the segment out over fiber and
	// the headend broadcasts it (Figure 4).
	sh.serverMeter.AddTransfer(from, to, units.StreamRate)

	// A complete miss broadcast can fill the cache at a storing peer.
	filler := (*hfc.SetTopBox)(nil)
	if complete && sh.is.fillsOnBroadcast() {
		if filler = sh.is.tryFill(p, pp, idx); filler != nil {
			sh.counters.Fills++
		}
	}
	if filler != nil {
		sh.scheduleBroadcastEnd(to, admitted, filler)
	} else if admitted {
		sh.queue.Schedule(to, eventq.PrioritySessionEnd, sh.newEvent(evCoaxRelease, nil, nil))
	}
	sh.observe(p, from, outcome, false, coaxBusy)
}

// scheduleBroadcastEnd schedules the end of a broadcast with a peer
// stream to close: the coax release (if the channel admitted the
// broadcast) and the stream close fuse into one event.
func (sh *shard) scheduleBroadcastEnd(to time.Duration, admitted bool, peer *hfc.SetTopBox) {
	kind := evPeerClose
	if admitted {
		kind = evBroadcastEnd
	}
	sh.queue.Schedule(to, eventq.PrioritySessionEnd, sh.newEvent(kind, nil, peer))
}

// observe emits one resolved segment request to the attached collector.
// Every reading is shard-local (the coax channel and the shard's own
// server meter), so the event stream a shard produces is identical at
// every parallelism level.
func (sh *shard) observe(p trace.ProgramID, at time.Duration, outcome ServeOutcome, firstFetch bool, coaxBusy units.BitRate) {
	col := sh.sys.collector
	if col == nil {
		return
	}
	if hour := int64(at / time.Hour); hour != sh.obsHour {
		sh.obsHour = hour
		sh.obsServerRate = sh.serverMeter.RateInHour(hour - 1)
	}
	coax := sh.nb.Coax()
	col.ObserveSegment(SegmentEvent{
		Neighborhood: sh.nb.ID(),
		Program:      p,
		At:           at,
		Outcome:      outcome,
		FirstFetch:   firstFetch,
		CoaxBusy:     coaxBusy,
		CoaxCapacity: coax.Capacity(),
		ServerRate:   sh.obsServerRate,
	})
}
