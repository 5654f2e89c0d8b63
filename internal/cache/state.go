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
// have.

// Entry is one cached program with its charged admission size, in
// eviction order — the serializable cache contents.
type Entry struct {
	Program trace.ProgramID
	Size    units.ByteSize
}

// Entries returns the cached programs with their charged sizes, in
// eviction order (least valuable first).
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.n)
	c.kp.ascendKeys(func(k Key, p trace.ProgramID, _ int) bool {
		out = append(out, Entry{Program: p, Size: c.sizes[k]})
		return true
	})
	return out
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
// (a live cross-neighborhood feed) fail SnapshotState with a clear error
// instead of silently snapshotting half their state.
type Snapshottable interface {
	// SnapshotState serializes the policy's complete decision state.
	SnapshotState() ([]byte, error)
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
// plus the opaque per-stage blobs.
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

// SnapshotState serializes the pipeline's victim-order structure and
// every stateful stage. It fails when a composed stage cannot serialize
// its state (the global popularity feed).
func (pl *Pipeline) SnapshotState() ([]byte, error) {
	ss, ok := pl.scorer.(stageSnapshotter)
	if !ok {
		return nil, fmt.Errorf("cache: pipeline %q: scorer %q does not support state snapshot", pl.name, pl.scorer.Name())
	}
	var st pipelineState
	pl.set.ascend(func(p trace.ProgramID, score int) bool {
		st.Entries = append(st.Entries, pipelineEntry{Program: p, Score: score})
		return true
	})
	var err error
	if st.Scorer, err = ss.snapshotStage(); err != nil {
		return nil, fmt.Errorf("cache: pipeline %q: scorer: %w", pl.name, err)
	}
	if pl.admission != nil {
		as, ok := pl.admission.(stageSnapshotter)
		if !ok {
			return nil, fmt.Errorf("cache: pipeline %q: admission %q does not support state snapshot", pl.name, pl.admission.Name())
		}
		if st.Admission, err = as.snapshotStage(); err != nil {
			return nil, fmt.Errorf("cache: pipeline %q: admission: %w", pl.name, err)
		}
		st.HasAdmission = true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("cache: pipeline %q: encode state: %w", pl.name, err)
	}
	return buf.Bytes(), nil
}

// RestoreState rebuilds a snapshot into a freshly built pipeline of the
// same composition: stages first (so their clocks and histories are in
// place), then the victim-order structure with its recorded scores.
func (pl *Pipeline) RestoreState(data []byte) error {
	if pl.set.len() != 0 {
		return fmt.Errorf("cache: pipeline %q: restore into a pipeline that has cached programs", pl.name)
	}
	var st pipelineState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("cache: pipeline %q: decode state: %w", pl.name, err)
	}
	ss, ok := pl.scorer.(stageSnapshotter)
	if !ok {
		return fmt.Errorf("cache: pipeline %q: scorer %q does not support state restore", pl.name, pl.scorer.Name())
	}
	if err := ss.restoreStage(st.Scorer); err != nil {
		return fmt.Errorf("cache: pipeline %q: scorer: %w", pl.name, err)
	}
	if st.HasAdmission {
		as, ok := pl.admission.(stageSnapshotter)
		if !ok {
			return fmt.Errorf("cache: pipeline %q: snapshot carries admission state but the stage cannot restore it", pl.name)
		}
		if err := as.restoreStage(st.Admission); err != nil {
			return fmt.Errorf("cache: pipeline %q: admission: %w", pl.name, err)
		}
	}
	for _, e := range st.Entries {
		pl.set.add(e.Program, e.Score)
	}
	return nil
}

// Gob numbers each type the first time the process encodes it, and
// every blob carries those numbers, so without this a policy snapshot's
// bytes (and the state digests over them) would depend on what else the
// process had gob-encoded before. Encoding each wire type once at init
// fixes the numbers. The order is the one a fresh LFU checkpoint first
// used, which keeps the digests of earlier LFU runs.
func init() {
	for _, v := range []any{&frequencyScorerState{}, &pipelineState{}, &oracleScorerState{}, &recency2State{}, &secondTouchState{}} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(err)
		}
	}
}

// encodeStage and decodeStage are the shared gob plumbing for stage
// state blobs.
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
// decays, so the counts are rebuilt from the queue.
type frequencyScorerState struct {
	Now     time.Duration
	Pending []frequencyAccessState
}

type frequencyAccessState struct {
	Program trace.ProgramID
	At      time.Duration
}

func (f *frequencyScorer) snapshotStage() ([]byte, error) {
	st := frequencyScorerState{Now: f.now}
	for _, e := range f.expiry[f.head:] {
		st.Pending = append(st.Pending, frequencyAccessState{Program: f.tab.program(e.key), At: e.at})
	}
	return encodeStage(&st)
}

func (f *frequencyScorer) restoreStage(data []byte) error {
	var st frequencyScorerState
	if err := decodeStage(data, &st); err != nil {
		return err
	}
	f.now = st.Now
	f.head = 0
	f.expiry = f.expiry[:0]
	for k, c := range f.counts {
		if c > 0 {
			f.tab.release(Key(k), holdCounted)
		}
	}
	clear(f.counts)
	for _, a := range st.Pending {
		k := f.tab.acquire(a.Program, holdCounted)
		f.counts = GrowKeyed(f.counts, k)
		f.counts[k]++
		f.expiry = append(f.expiry, keyedExpiry{key: k, at: a.At})
	}
	return nil
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
// all of it is the state). Last and Prev are the maps earlier snapshots
// wrote instead; gob writes a map in iteration order, so one state gave
// different bytes each time. They are still read.
type recency2State struct {
	Last map[trace.ProgramID]time.Duration
	Prev map[trace.ProgramID]time.Duration
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
	r.last, r.prev = st.Last, st.Prev
	if r.last == nil {
		r.last = make(map[trace.ProgramID]time.Duration, len(st.Refs))
	}
	if r.prev == nil {
		r.prev = make(map[trace.ProgramID]time.Duration, len(st.Refs))
	}
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

// secondTouchState is the bypass-on-first-touch filter's wire form:
// each requested program's touch count (1 or 2), in program order. Seen
// is the map earlier snapshots wrote instead, in map iteration order;
// it is still read.
type secondTouchState struct {
	Seen    map[trace.ProgramID]uint8
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
	a.seen = st.Seen
	if a.seen == nil {
		a.seen = make(map[trace.ProgramID]uint8, len(st.Touched))
	}
	for _, t := range st.Touched {
		a.seen[t.Program] = t.Count
	}
	return nil
}

// sizeCapAdmission carries no mutable state.
func (a *sizeCapAdmission) snapshotStage() ([]byte, error) { return nil, nil }
func (a *sizeCapAdmission) restoreStage([]byte) error      { return nil }
