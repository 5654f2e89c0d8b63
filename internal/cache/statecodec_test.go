package cache

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// The pipeline's and the frequency scorer's state blobs are written and
// read by hand (gobwire.go). These tests hold them to encoding/gob: the
// reference below is what SnapshotState and RestoreState did when they
// went through gob's reflection.

// freqOf returns the frequency scorer behind sc, nil if none.
func freqOf(sc Scorer) *frequencyScorer {
	switch s := sc.(type) {
	case *frequencyScorer:
		return s
	case *sizeFrequencyScorer:
		return s.freq
	}
	return nil
}

func mustGob(t testing.TB, v any) []byte {
	t.Helper()
	b, err := encodeStage(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refSnapshot gob-encodes the wire structs built from the live pipeline.
func refSnapshot(t testing.TB, pl *Pipeline) []byte {
	t.Helper()
	var st pipelineState
	pl.set.ascend(func(p trace.ProgramID, score int) bool {
		st.Entries = append(st.Entries, pipelineEntry{Program: p, Score: score})
		return true
	})
	if f := freqOf(pl.scorer); f != nil {
		fs := frequencyScorerState{Now: f.now}
		for i := range f.expiry.len() {
			e := f.expiry.at(i)
			fs.Pending = append(fs.Pending, frequencyAccessState{Program: f.tab.program(e.key), At: e.at})
		}
		st.Scorer = mustGob(t, &fs)
	} else {
		var err error
		if st.Scorer, err = pl.scorer.(stageSnapshotter).snapshotStage(); err != nil {
			t.Fatal(err)
		}
	}
	if pl.admission != nil {
		var err error
		if st.Admission, err = pl.admission.(stageSnapshotter).snapshotStage(); err != nil {
			t.Fatal(err)
		}
		st.HasAdmission = true
	}
	return mustGob(t, &st)
}

// refRestore gob-decodes a blob and rebuilds the pipeline from the wire
// structs.
func refRestore(pl *Pipeline, data []byte) error {
	var st pipelineState
	if err := decodeStage(data, &st); err != nil {
		return err
	}
	if f := freqOf(pl.scorer); f != nil {
		var fs frequencyScorerState
		if err := decodeStage(st.Scorer, &fs); err != nil {
			return err
		}
		f.now = fs.Now
		for _, a := range fs.Pending {
			k := f.tab.acquire(a.Program, holdCounted)
			f.counts = GrowKeyed(f.counts, k)
			f.counts[k]++
			f.expiry.push(keyedExpiry{key: k, at: a.At})
		}
	} else if err := pl.scorer.(stageSnapshotter).restoreStage(st.Scorer); err != nil {
		return err
	}
	if st.HasAdmission {
		if err := pl.admission.(stageSnapshotter).restoreStage(st.Admission); err != nil {
			return err
		}
	}
	for _, e := range st.Entries {
		pl.set.add(e.Program, e.Score)
	}
	return nil
}

// liveState is a pipeline's live state by program: keys are handed out
// in arrival order, so they are not compared.
type liveState struct {
	Entries []pipelineEntry
	Now     time.Duration
	Pending []frequencyAccessState
	Counts  map[trace.ProgramID]int32
	Holds   map[trace.ProgramID]uint8
	Touched map[trace.ProgramID]uint8
}

func liveOf(pl *Pipeline) liveState {
	var ls liveState
	pl.set.ascend(func(p trace.ProgramID, score int) bool {
		ls.Entries = append(ls.Entries, pipelineEntry{Program: p, Score: score})
		return true
	})
	if f := freqOf(pl.scorer); f != nil {
		ls.Now = f.now
		for i := range f.expiry.len() {
			e := f.expiry.at(i)
			ls.Pending = append(ls.Pending, frequencyAccessState{Program: f.tab.program(e.key), At: e.at})
		}
		ls.Counts = map[trace.ProgramID]int32{}
		for k, c := range f.counts {
			if c != 0 {
				ls.Counts[f.tab.program(Key(k))] = c
			}
		}
	}
	// The pipeline's own holds: a cache driving it shares its table.
	ls.Holds = map[trace.ProgramID]uint8{}
	for p, k := range pl.tab.index {
		if h := pl.tab.slots[k].holds & (holdTracked | holdCounted); h != 0 {
			ls.Holds[p] = h
		}
	}
	if a, ok := pl.admission.(*secondTouchAdmission); ok {
		ls.Touched = a.seen
	}
	return ls
}

// codecPipelines builds each composition the tests cover; every call
// returns fresh stages.
var codecPipelines = map[string]func() *Pipeline{
	"lfu": func() *Pipeline {
		sc, _ := NewFrequencyScorer(24 * time.Hour)
		pl, _ := NewPipeline(PipelineConfig{Name: "lfu", Scorer: sc})
		return pl
	},
	"lfu-2touch": func() *Pipeline {
		sc, _ := NewFrequencyScorer(24 * time.Hour)
		pl, _ := NewPipeline(PipelineConfig{Name: "lfu-2touch", Scorer: sc, Admission: NewSecondTouchAdmission()})
		return pl
	},
	"gdsf": func() *Pipeline {
		sc, _ := NewSizeFrequencyScorer(24*time.Hour, func(p trace.ProgramID) int { return 1 + int(p&3) })
		pl, _ := NewPipeline(PipelineConfig{Name: "gdsf", Scorer: sc})
		return pl
	},
	"lru": func() *Pipeline {
		pl, _ := NewPipeline(PipelineConfig{Name: "lru", Scorer: NewConstantScorer("lru", 0)})
		return pl
	},
}

// wireInt draws a bits-wide integer from the classes that shape an
// encoding: zero, one-byte, multi-byte and extreme, of either sign.
func wireInt(rng *rand.Rand, bits int) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(64) - 32
	case 2:
		return rng.Int63n(1<<20) - 1<<19
	case 3:
		return -1 << (bits - 1)
	case 4:
		return 1<<(bits-1) - 1
	default:
		return int64(rng.Uint64()) >> (64 - bits)
	}
}

// randomWire draws a wire state for the named composition with about
// pending queued accesses, and returns it with its gob blob.
func randomWire(t testing.TB, rng *rand.Rand, name string, pending int) (pipelineState, []byte) {
	var st pipelineState
	if rng.Intn(4) == 0 {
		st.Entries = []pipelineEntry{} // empty, not nil: gob writes neither
	}
	seen := map[trace.ProgramID]bool{}
	for range rng.Intn(40) {
		p := trace.ProgramID(wireInt(rng, 32))
		if !seen[p] {
			seen[p] = true
			st.Entries = append(st.Entries, pipelineEntry{Program: p, Score: int(wireInt(rng, 64))})
		}
	}
	// Victim order: score ascending, then as added.
	slices.SortStableFunc(st.Entries, func(a, b pipelineEntry) int { return cmp.Compare(a.Score, b.Score) })
	if name != "lru" {
		fs := frequencyScorerState{Now: time.Duration(wireInt(rng, 64))}
		if pending == 0 && rng.Intn(2) == 0 {
			fs.Pending = []frequencyAccessState{}
		}
		programs := []trace.ProgramID{0, -1, math.MaxInt32, math.MinInt32, 7}
		for range pending {
			if rng.Intn(3) == 0 {
				programs = append(programs, trace.ProgramID(wireInt(rng, 32)))
			}
			fs.Pending = append(fs.Pending, frequencyAccessState{
				Program: programs[rng.Intn(len(programs))],
				At:      time.Duration(wireInt(rng, 64)),
			})
		}
		st.Scorer = mustGob(t, &fs)
	}
	if name == "lfu-2touch" {
		var ts secondTouchState
		for p := range trace.ProgramID(rng.Intn(30)) {
			if rng.Intn(2) == 0 {
				ts.Touched = append(ts.Touched, programTouches{Program: p*7 - 50, Count: uint8(1 + rng.Intn(2))})
			}
		}
		st.Admission, st.HasAdmission = mustGob(t, &ts), true
	}
	return st, mustGob(t, &st)
}

// TestPolicyCodecMatchesGob: the hand-coded blobs are encoding/gob's
// bytes, gob reads them back to the same state, and the hand reader
// rebuilds exactly the live state the gob path rebuilt. The states are
// drawn as wire values (zero fields, negative and extreme values, nil
// and empty slices, 20,000 queued accesses, an admission blob, LRU's
// scorer without state) and taken from caches under real traffic
// (evictions, decay, a compacted queue head).
func TestPolicyCodecMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for name, build := range codecPipelines {
		for i := range 60 {
			pending := rng.Intn(50)
			switch i {
			case 0:
				pending = 0
			case 1:
				pending = 20000
			}
			want, ref := randomWire(t, rng, name, pending)
			pl := build()
			if err := pl.RestoreState(ref); err != nil {
				t.Fatalf("%s #%d: hand restore of a gob blob: %v", name, i, err)
			}
			got, err := pl.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s #%d: hand-written blob differs from gob's (%d vs %d bytes)", name, i, len(got), len(ref))
			}
			if cap(got) != len(got) {
				t.Errorf("%s #%d: blob of %d bytes in a buffer of %d", name, i, len(got), cap(got))
			}
			var back pipelineState
			if err := decodeStage(got, &back); err != nil {
				t.Fatalf("%s #%d: gob cannot read the hand-written blob: %v", name, i, err)
			}
			if len(want.Entries) == 0 {
				want.Entries = nil
			}
			if !reflect.DeepEqual(back, want) {
				t.Fatalf("%s #%d: gob reads the hand-written blob as a different state", name, i)
			}
			ref2 := build()
			if err := refRestore(ref2, ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(liveOf(pl), liveOf(ref2)) {
				t.Fatalf("%s #%d: hand restore rebuilt a different live state than gob's", name, i)
			}
		}

		pl := build()
		c, err := New(40*units.GB, pl)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		for i := range 30000 {
			now += time.Duration(rng.Intn(9)) * time.Second
			c.Access(trace.ProgramID(rng.Intn(300)), units.GB, now)
			if i%7000 != 0 {
				continue
			}
			got, err := pl.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if ref := refSnapshot(t, pl); !bytes.Equal(got, ref) {
				t.Fatalf("%s after %d accesses: hand-written blob differs from gob's", name, i)
			}
			back := build()
			if err := back.RestoreState(got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(liveOf(back), liveOf(pl)) {
				t.Fatalf("%s after %d accesses: restore rebuilt a different live state", name, i)
			}
		}
	}
}

// policyAllocPerByte and policyAllocSlack bound what RestoreState may
// allocate for an input of n bytes: n*policyAllocPerByte+policyAllocSlack.
// Every queued access and every entry takes at least a byte; an access
// costs a 16-byte queue slot, and a new program (at least 3 bytes) a
// table slot, a count and a map entry, about 100 bytes with the map's
// doubling; an entry (at least 3 bytes) adds a 32-byte node, its slot
// pointer and at most one 40-byte bucket.
const (
	policyAllocPerByte = 128
	policyAllocSlack   = 64 << 10
)

// FuzzPolicyState: the hand reader never panics, allocates within the
// bound, and whatever it accepts gob reads as the same state.
func FuzzPolicyState(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, pending := range []int{0, 3, 40} {
		_, blob := randomWire(f, rng, "lfu", pending)
		f.Add(blob)
	}
	pl := codecPipelines["lfu"]()
	c, _ := New(20*units.GB, pl)
	for i := range 400 {
		c.Access(trace.ProgramID(i%37), units.GB, time.Duration(i)*time.Minute)
	}
	blob, _ := pl.SnapshotState()
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		pl := codecPipelines["lfu"]()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		err := pl.RestoreState(data)
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > uint64(len(data))*policyAllocPerByte+policyAllocSlack {
			t.Fatalf("restore of %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		ref := codecPipelines["lfu"]()
		if err := refRestore(ref, data); err != nil {
			t.Fatalf("hand reader accepts what gob rejects: %v", err)
		}
		if got, want := liveOf(pl), liveOf(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("hand reader and gob disagree:\nhand %+v\ngob  %+v", got, want)
		}
		if !slices.Equal(refSnapshot(t, pl), refSnapshot(t, ref)) {
			t.Fatal("the two restores snapshot differently")
		}
	})
}
