package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// State export/import for the snapshot/restore subsystem. The Cache
// container serializes its contents (programs with charged sizes, in
// eviction order) and counters; a Pipeline policy serializes its victim-
// order structure plus whatever per-stage state its scorer and admission
// stages carry. Restoring rebuilds both bit-exactly, so a run resumed
// from a snapshot makes the same decisions the uninterrupted run would
// have. A policy blob is encoding/gob's bytes: the pipeline's own and
// the frequency scorer's are written and read by hand, with no
// reflection (gobwire.go); the other stages' go through gob.

// Entry is one cached program with its charged admission size, in
// eviction order — the serializable cache contents.
type Entry struct {
	Program trace.ProgramID
	Size    units.ByteSize
}

// AppendEntries appends the cached programs with their charged sizes to
// dst, in eviction order (least valuable first).
func (c *Cache) AppendEntries(dst []Entry) []Entry {
	c.kp.ascendKeys(func(k Key, p trace.ProgramID, _ int) bool {
		dst = append(dst, Entry{Program: p, Size: c.sizes[k]})
		return true
	})
	return dst
}

// RestoreEntries refills an empty cache from exported entries. With seed
// true the policy is notified of each admission in eviction order — the
// warm-start path for forking a snapshot onto a *different* strategy,
// whose fresh policy learns the inherited contents as if it had admitted
// them. With seed false the policy is assumed to have been restored
// separately (same-strategy restore) and only the container's byte
// accounting is rebuilt.
func (c *Cache) RestoreEntries(entries []Entry, now time.Duration, seed bool) error {
	if c.used != 0 || c.n != 0 {
		return fmt.Errorf("cache: restore into a non-empty cache (%d programs)", c.n)
	}
	if seed {
		c.policy.Advance(now)
	}
	for _, e := range entries {
		if e.Size < 0 {
			return fmt.Errorf("cache: restore of program %d with negative size %v", e.Program, e.Size)
		}
		k, dup := c.cachedKey(e.Program)
		if dup {
			return fmt.Errorf("cache: restore of duplicate program %d", e.Program)
		}
		if c.used+e.Size > c.capacity {
			return fmt.Errorf("cache: restored contents exceed capacity %v", c.capacity)
		}
		k = c.charge(k, e.Program, e.Size)
		if seed {
			c.kp.admit(k, e.Program, now)
		}
	}
	return nil
}

// RestoreStats forces the hit/miss counters to a snapshot's values.
func (c *Cache) RestoreStats(hits, misses uint64) {
	c.hits, c.misses = hits, misses
}

// SetCapacity re-targets the cache's byte capacity — the supply-side
// disruption hook. When the new capacity falls below the bytes in use,
// the least valuable programs are evicted (in policy eviction order)
// until the remainder fits; the victims are returned so the caller can
// release their placements.
func (c *Cache) SetCapacity(capacity units.ByteSize) ([]trace.ProgramID, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %v", capacity)
	}
	c.capacity = capacity
	if c.used <= capacity {
		return nil, nil
	}
	var victims []trace.ProgramID
	var keys []Key
	var freed units.ByteSize
	c.kp.ascendKeys(func(k Key, p trace.ProgramID, _ int) bool {
		victims = append(victims, p)
		keys = append(keys, k)
		freed += c.sizes[k]
		return c.used-freed > capacity
	})
	for i, k := range keys {
		c.evictKey(k, victims[i])
	}
	return victims, nil
}

// Snapshottable is implemented by policies whose full decision state can
// be serialized and restored. Pipeline implements it whenever every
// stateful stage it composes does; strategies with un-serializable state
// (a live cross-neighborhood feed) fail AppendState with a clear error
// instead of silently snapshotting half their state.
type Snapshottable interface {
	// AppendState appends the policy's complete decision state,
	// serialized, to dst.
	AppendState(dst []byte) ([]byte, error)
	// RestoreState rebuilds the state into a freshly constructed policy
	// of the same composition that has seen no traffic.
	RestoreState(data []byte) error
}

// stageSnapshotter is the per-stage state hook the built-in stages
// implement. Stages without state return (nil, nil).
type stageSnapshotter interface {
	snapshotStage() ([]byte, error)
	restoreStage(data []byte) error
}

// pipelineState is the wire form of a Pipeline's state: the victim-order
// structure as an ordered (program, score) list — rebuilt by re-adding
// in ascend order, which reproduces the bucket/recency chains exactly —
// plus the opaque per-stage blobs. The blob is gob's encoding of it,
// written and read by hand (gobwire.go): Pipeline.SnapshotState and
// RestoreState are its codec pair.
type pipelineState struct {
	Entries      []pipelineEntry
	Scorer       []byte
	Admission    []byte
	HasAdmission bool
}

type pipelineEntry struct {
	Program trace.ProgramID
	Score   int
}

var (
	_ Snapshottable = (*Pipeline)(nil)
)

// handCoded is a stage whose state is a frequency scorer's hand-written
// blob (freqBlob): stateBody sizes the blob's value message and
// appendState appends the blob, so the pipeline sizes its own blob, the
// stage's included, before writing either.
type handCoded interface {
	stateBody() int
	appendState(b []byte, body int) []byte
}

// SnapshotState serializes the pipeline's victim-order structure and
// every stateful stage into one buffer of the blob's exact size. It
// fails when a composed stage cannot serialize its state (the global
// popularity feed).
func (pl *Pipeline) SnapshotState() ([]byte, error) { return pl.AppendState(nil) }

// AppendState is SnapshotState appending the blob to dst. A dst without
// the room is grown once: to exactly the blob's size when it has no
// capacity, else to at least twice its capacity, so a buffer reused
// across pipelines settles at the largest blob.
func (pl *Pipeline) AppendState(dst []byte) ([]byte, error) {
	ss, ok := pl.scorer.(stageSnapshotter)
	if !ok {
		return dst, fmt.Errorf("cache: pipeline %q: scorer %q does not support state snapshot", pl.name, pl.scorer.Name())
	}
	var scorer, admission []byte
	var err error
	hand, _ := pl.scorer.(handCoded)
	scorerBody, scorerLen := 0, 0
	if hand != nil {
		scorerBody = hand.stateBody()
		scorerLen = freqBlob.size(scorerBody)
	} else {
		if scorer, err = ss.snapshotStage(); err != nil {
			return dst, fmt.Errorf("cache: pipeline %q: scorer: %w", pl.name, err)
		}
		scorerLen = len(scorer)
	}
	if pl.admission != nil {
		as, ok := pl.admission.(stageSnapshotter)
		if !ok {
			return dst, fmt.Errorf("cache: pipeline %q: admission %q does not support state snapshot", pl.name, pl.admission.Name())
		}
		if admission, err = as.snapshotStage(); err != nil {
			return dst, fmt.Errorf("cache: pipeline %q: admission: %w", pl.name, err)
		}
	}

	entries, entryBytes := 0, 0
	pl.set.ascend(func(p trace.ProgramID, score int) bool {
		entries++
		entryBytes += gobPairLen(int64(p), int64(score))
		return true
	})
	fields := 0
	if entries > 0 {
		fields += 1 + gobUintLen(uint64(entries)) + entryBytes
	}
	if scorerLen > 0 {
		fields += 1 + gobUintLen(uint64(scorerLen)) + scorerLen
	}
	if len(admission) > 0 {
		fields += 1 + gobUintLen(uint64(len(admission))) + len(admission)
	}
	if pl.admission != nil {
		fields += 2 // HasAdmission
	}
	body := pipelineBlob.msgBody(fields)
	if n := pipelineBlob.size(body); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, max(len(dst)+n, 2*cap(dst))), dst...)
	}
	b := pipelineBlob.begin(dst, body)
	last := -1
	if entries > 0 {
		b = appendGobField(b, &last, 0)
		b = appendGobUint(b, uint64(entries))
		pl.set.ascend(func(p trace.ProgramID, score int) bool {
			b = appendGobPair(b, int64(p), int64(score))
			return true
		})
	}
	if scorerLen > 0 {
		b = appendGobField(b, &last, 1)
		b = appendGobUint(b, uint64(scorerLen))
		if hand != nil {
			b = hand.appendState(b, scorerBody)
		} else {
			b = append(b, scorer...)
		}
	}
	if len(admission) > 0 {
		b = appendGobField(b, &last, 2)
		b = appendGobUint(b, uint64(len(admission)))
		b = append(b, admission...)
	}
	if pl.admission != nil {
		b = appendGobField(b, &last, 3)
		b = append(b, 1)
	}
	return append(b, 0), nil
}

// RestoreState rebuilds a snapshot into a freshly built pipeline of the
// same composition: stages first (so their clocks and histories are in
// place), then the victim-order structure with its recorded scores. The
// pipeline's own fields are checked before any stage is touched, but a
// stage checks its inner blob as it rebuilds from it, so a failed
// restore can leave a stage half rebuilt and the pipeline unusable.
func (pl *Pipeline) RestoreState(data []byte) error {
	if pl.set.len() != 0 {
		return fmt.Errorf("cache: pipeline %q: restore into a pipeline that has cached programs", pl.name)
	}
	r, err := pipelineBlob.open(data)
	var entries gobReader // the Entries elements, added after the stages
	n := 0
	var scorer, admission []byte
	hasAdmission := false
	for last := -1; err == nil && r.field(&last, 4); {
		switch last {
		case 0:
			n = r.count()
			start := r.off
			for range n {
				r.pair()
			}
			entries = gobReader{b: r.b[start:r.off]}
		case 1:
			scorer = r.bytes()
		case 2:
			admission = r.bytes()
		case 3:
			hasAdmission = r.uint() != 0
		}
	}
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return fmt.Errorf("cache: pipeline %q: decode state: %w", pl.name, err)
	}
	ss, ok := pl.scorer.(stageSnapshotter)
	if !ok {
		return fmt.Errorf("cache: pipeline %q: scorer %q does not support state restore", pl.name, pl.scorer.Name())
	}
	if err := ss.restoreStage(scorer); err != nil {
		return fmt.Errorf("cache: pipeline %q: scorer: %w", pl.name, err)
	}
	if hasAdmission {
		as, ok := pl.admission.(stageSnapshotter)
		if !ok {
			return fmt.Errorf("cache: pipeline %q: snapshot carries admission state but the stage cannot restore it", pl.name)
		}
		if err := as.restoreStage(admission); err != nil {
			return fmt.Errorf("cache: pipeline %q: admission: %w", pl.name, err)
		}
	}
	for range n {
		p, score := entries.pair()
		if pl.set.contains(trace.ProgramID(p)) {
			return fmt.Errorf("cache: pipeline %q: program %d listed twice", pl.name, p)
		}
		pl.set.add(trace.ProgramID(p), int(score))
	}
	return nil
}

// Gob numbers each type the first time the process encodes it, and
// every blob carries those numbers, so without this a policy snapshot's
// bytes (and the state digests over them) would depend on what else the
// process had gob-encoded before. Encoding each wire type once at init
// fixes the numbers. The order is the one a fresh LFU checkpoint first
// used, which keeps the digests of earlier LFU runs. The hand-coded
// blobs' type definitions are captured after that.
var freqBlob, pipelineBlob gobBlob

func init() {
	for _, v := range []any{&frequencyScorerState{}, &pipelineState{}, &oracleScorerState{}, &recency2State{}, &secondTouchState{}} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(err)
		}
	}
	freqBlob = captureBlob(&frequencyScorerState{})
	pipelineBlob = captureBlob(&pipelineState{})
}

// encodeStage and decodeStage are the shared gob plumbing for the
// reflection-coded stage state blobs (oracle, LRU-2, second touch).
func encodeStage(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeStage(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// --- built-in stage states ---

// constantScorer carries no state.
func (c *constantScorer) snapshotStage() ([]byte, error) { return nil, nil }
func (c *constantScorer) restoreStage([]byte) error      { return nil }

// frequencyScorerState is the windowed-frequency scorer's wire form: the
// clock and the pending expiry queue. Counts are not serialized — each
// recorded access contributes exactly one pending expiry entry until it
// decays, so the counts are rebuilt from the queue. The blob is gob's
// encoding of it, written from the live queue and read back into it by
// hand (stateBody/appendState and restoreStage).
type frequencyScorerState struct {
	Now     time.Duration
	Pending []frequencyAccessState
}

type frequencyAccessState struct {
	Program trace.ProgramID
	At      time.Duration
}

func (f *frequencyScorer) snapshotStage() ([]byte, error) {
	body := f.stateBody()
	return f.appendState(make([]byte, 0, freqBlob.size(body)), body), nil
}

func (f *frequencyScorer) stateBody() int {
	fields := 0
	if f.now != 0 {
		fields += 1 + gobIntLen(int64(f.now))
	}
	if n := f.expiry.len(); n > 0 {
		fields += 1 + gobUintLen(uint64(n))
		for i := range n {
			e := f.expiry.at(i)
			fields += gobPairLen(int64(f.tab.program(e.key)), int64(e.at))
		}
	}
	return freqBlob.msgBody(fields)
}

func (f *frequencyScorer) appendState(b []byte, body int) []byte {
	b = freqBlob.begin(b, body)
	last := -1
	if f.now != 0 {
		b = appendGobField(b, &last, 0)
		b = appendGobInt(b, int64(f.now))
	}
	if n := f.expiry.len(); n > 0 {
		b = appendGobField(b, &last, 1)
		b = appendGobUint(b, uint64(n))
		for i := range n {
			e := f.expiry.at(i)
			b = appendGobPair(b, int64(f.tab.program(e.key)), int64(e.at))
		}
	}
	return append(b, 0)
}

// restoreStage replaces the scorer's clock and queue with the blob's,
// counting each pending access as it is read.
func (f *frequencyScorer) restoreStage(data []byte) error {
	r, err := freqBlob.open(data)
	if err != nil {
		return err
	}
	f.now = 0
	f.expiry.reset()
	for k, c := range f.counts {
		if c > 0 {
			f.tab.release(Key(k), holdCounted)
		}
	}
	clear(f.counts)
	for last := -1; r.field(&last, 2); {
		if last == 0 {
			f.now = time.Duration(r.int())
			continue
		}
		n := r.count()
		for range n {
			p, at := r.pair()
			if r.err != nil {
				break
			}
			k := f.tab.acquire(trace.ProgramID(p), holdCounted)
			f.counts = GrowKeyed(f.counts, k)
			f.counts[k]++
			f.expiry.push(keyedExpiry{key: k, at: time.Duration(at)})
		}
	}
	return r.end()
}

// oracleScorerState is the future-window scorer's wire form: just the
// clock. The window-entry and window-exit streams are rebuilt by the
// strategy factory from the serialized future, so advancing a fresh
// scorer to the snapshot clock replays the heads and counts exactly.
type oracleScorerState struct {
	Now     time.Duration
	Started bool
}

func (o *oracleScorer) snapshotStage() ([]byte, error) {
	return encodeStage(&oracleScorerState{Now: o.now, Started: o.started})
}

func (o *oracleScorer) restoreStage(data []byte) error {
	var st oracleScorerState
	if err := decodeStage(data, &st); err != nil {
		return err
	}
	if st.Started {
		o.Advance(st.Now)
	}
	return nil
}

// recency2State is the LRU-2 scorer's wire form: every program's
// reference history, in program order (history survives eviction, so
// all of it is the state).
type recency2State struct {
	Refs []recency2Ref
}

// recency2Ref is one program's last reference and, when HasPrev, the
// one before it.
type recency2Ref struct {
	Program    trace.ProgramID
	Last, Prev time.Duration
	HasPrev    bool
}

func (r *recency2Scorer) snapshotStage() ([]byte, error) {
	st := recency2State{Refs: make([]recency2Ref, 0, len(r.last))}
	for _, p := range slices.Sorted(maps.Keys(r.last)) {
		prev, ok := r.prev[p]
		st.Refs = append(st.Refs, recency2Ref{Program: p, Last: r.last[p], Prev: prev, HasPrev: ok})
	}
	return encodeStage(&st)
}

func (r *recency2Scorer) restoreStage(data []byte) error {
	var st recency2State
	if err := decodeStage(data, &st); err != nil {
		return err
	}
	r.last = make(map[trace.ProgramID]time.Duration, len(st.Refs))
	r.prev = make(map[trace.ProgramID]time.Duration, len(st.Refs))
	for _, ref := range st.Refs {
		r.last[ref.Program] = ref.Last
		if ref.HasPrev {
			r.prev[ref.Program] = ref.Prev
		}
	}
	return nil
}

// sizeFrequencyScorer's only state is its inner frequency scorer.
func (s *sizeFrequencyScorer) snapshotStage() ([]byte, error) { return s.freq.snapshotStage() }
func (s *sizeFrequencyScorer) restoreStage(data []byte) error { return s.freq.restoreStage(data) }
func (s *sizeFrequencyScorer) stateBody() int                 { return s.freq.stateBody() }
func (s *sizeFrequencyScorer) appendState(b []byte, body int) []byte {
	return s.freq.appendState(b, body)
}

// secondTouchState is the bypass-on-first-touch filter's wire form:
// each requested program's touch count (1 or 2), in program order.
type secondTouchState struct {
	Touched []programTouches
}

type programTouches struct {
	Program trace.ProgramID
	Count   uint8
}

func (a *secondTouchAdmission) snapshotStage() ([]byte, error) {
	st := secondTouchState{Touched: make([]programTouches, 0, len(a.seen))}
	for _, p := range slices.Sorted(maps.Keys(a.seen)) {
		st.Touched = append(st.Touched, programTouches{Program: p, Count: a.seen[p]})
	}
	return encodeStage(&st)
}

func (a *secondTouchAdmission) restoreStage(data []byte) error {
	var st secondTouchState
	if err := decodeStage(data, &st); err != nil {
		return err
	}
	a.seen = make(map[trace.ProgramID]uint8, len(st.Touched))
	for _, t := range st.Touched {
		a.seen[t.Program] = t.Count
	}
	return nil
}

// sizeCapAdmission carries no mutable state.
func (a *sizeCapAdmission) snapshotStage() ([]byte, error) { return nil, nil }
func (a *sizeCapAdmission) restoreStage([]byte) error      { return nil }
