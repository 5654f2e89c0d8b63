package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/hfc"
	"cablevod/internal/synth"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// smallState is a half-run of a small synthetic plant in two
// neighborhoods: a real state of 1-3 KB, small enough to seed the
// fuzzer. future
// hands the engine the whole trace as its workload's Future (the oracle
// needs it); schedule is armed before the first record.
func smallState(t testing.TB, strategy string, future bool, schedule func(*hfc.Topology) []Disruption) *SystemState {
	t.Helper()
	scfg := synth.TestConfig()
	scfg.Users = 30
	scfg.Programs = 12
	scfg.Days = 1
	tr, err := synth.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFromTrace(tr)
	if !future {
		w.Future = nil
	}
	cfg := Config{
		Topology:     hfc.Config{NeighborhoodSize: 15, PerPeerStorage: units.GB},
		StrategyName: strategy,
		Parallelism:  1,
	}
	sys, err := NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if schedule != nil {
		if err := sys.ScheduleDisruptions(schedule(sys.topo)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.SubmitBatch(tr.Records[:len(tr.Records)/2]); err != nil {
		t.Fatal(err)
	}
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pendingDisruptions schedules a cold restart and a coax cut long after
// a small state's cut.
func pendingDisruptions(*hfc.Topology) []Disruption {
	return []Disruption{
		{At: 100 * time.Hour, Kind: DisruptColdRestart, Neighborhood: 1},
		{At: 100 * time.Hour, Kind: DisruptCoaxCapacity, Neighborhood: -1, CoaxCapacity: hfc.DefaultCoaxCapacity / 2},
	}
}

// heterogeneousBoxes re-provisions every box at t=0 to one of four
// sizes, as the universe tiers' heterogeneous fleets are.
func heterogeneousBoxes(topo *hfc.Topology) []Disruption {
	var out []Disruption
	for _, nb := range topo.Neighborhoods() {
		caps := make([]units.ByteSize, len(nb.Peers()))
		for i := range caps {
			caps[i] = units.ByteSize(1+i%4) * units.GB / 2
		}
		out = append(out, Disruption{Kind: DisruptPeerCapacities, Neighborhood: nb.ID(), PeerCapacities: caps})
	}
	return out
}

func encodeState(t testing.TB, st *SystemState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionSpan is one section of a state file: [start, end) covers its
// length prefix, payload and CRC; the payload is [payload, end-4).
type sectionSpan struct{ start, payload, end int }

// stateSections splits a well-formed state file into its header line's
// length and its sections.
func stateSections(t testing.TB, data []byte) (header int, sections []sectionSpan) {
	t.Helper()
	header = bytes.IndexByte(data, '\n') + 1
	for i := header; i < len(data); {
		size, n := binary.Uvarint(data[i:])
		if n <= 0 {
			t.Fatalf("bad section length at byte %d", i)
		}
		s := sectionSpan{start: i, payload: i + n, end: i + n + int(size) + crc32.Size}
		sections = append(sections, s)
		i = s.end
	}
	return header, sections
}

// sealSection frames payload as a section with a valid CRC.
func sealSection(payload []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
}

// resealSections recomputes the CRC of every section of data that its
// length prefix frames, so a mutation of a payload reaches the decoder
// instead of stopping at the checksum.
func resealSections(data []byte) []byte {
	data = slices.Clone(data)
	i := bytes.IndexByte(data, '\n') + 1
	if i == 0 {
		return data
	}
	for i < len(data) {
		size, n := binary.Uvarint(data[i:])
		if n <= 0 || size > uint64(len(data)-i-n) || uint64(len(data)-i-n)-size < crc32.Size {
			break
		}
		payload := data[i+n : i+n+int(size)]
		binary.LittleEndian.PutUint32(data[i+n+int(size):], crc32.Checksum(payload, castagnoli))
		i += n + int(size) + crc32.Size
	}
	return data
}

// readAllocs reads data and reports the bytes the read allocated.
func readAllocs(data []byte) (st *SystemState, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err = ReadState(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return st, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadStateRejectsHostileInput: every malformed file fails with an
// error, never a panic, and a count the file cannot back allocates
// nothing for it.
func TestReadStateRejectsHostileInput(t *testing.T) {
	st := smallState(t, "lfu", false, nil)
	good := encodeState(t, st)
	header, sections := stateSections(t, good)
	if len(sections) != 1+len(st.Shards) || len(st.Shards) < 2 {
		t.Fatalf("%d sections for %d shards", len(sections), len(st.Shards))
	}
	if _, err := ReadState(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	shardsField := fmt.Sprintf(`"shards":%d`, len(st.Shards))
	withShards := func(field string) []byte {
		return bytes.Replace(good, []byte(shardsField), []byte(field), 1)
	}
	// A zero shard whose placement list is empty ends its payload with
	// the placements' count (1) and its two totals (0, 0); either total
	// or the events count (the fifth field) can then claim 2^40 elements
	// in a section with a valid checksum.
	zero := ShardState{Index: IndexState{Placements: []PlacementState{}}}
	var e encoder
	e.shard(&zero)
	zeroShard := e.b
	withShard0 := func(payload []byte) []byte {
		return slices.Concat(good[:sections[1].start], sealSection(payload), good[sections[2].start:])
	}
	const huge = 1 << 40

	type hostile struct {
		name, want string
		data       []byte
		bounded    bool // the claim must not be allocated
	}
	cases := []hostile{
		{name: "shards -1", want: "-1 shards", data: withShards(`"shards":-1`), bounded: true},
		{name: "shards 4e12", want: "its header 4000000000000", data: withShards(`"shards":4000000000000`), bounded: true},
		{name: "body shard count", want: fmt.Sprintf("body has %d shards, its header %d", len(st.Shards), len(st.Shards)+1),
			data: withShards(fmt.Sprintf(`"shards":%d`, len(st.Shards)+1))},
		{name: "section length 2^40", want: "unexpected EOF",
			data: slices.Concat(good[:header], binary.AppendUvarint(nil, huge), make([]byte, 10)), bounded: true},
		{name: "row count 2^40", want: "segment rows",
			data:    withShard0(slices.Concat(zeroShard[:len(zeroShard)-2], binary.AppendUvarint(nil, huge), []byte{0})),
			bounded: true},
		{name: "event count 2^40", want: "exceeds the",
			data:    withShard0(slices.Concat(zeroShard[:4], binary.AppendUvarint(nil, huge+1), zeroShard[5:])),
			bounded: true},
		{name: "trailing bytes", want: "after its last section", data: append(slices.Clone(good), 0)},
		{name: "not a state file", want: "not a snapshot file", data: []byte("{}\n")},
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "state-v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, hostile{name: "version 3 (gob)", want: "version 3, this build reads version 4", data: v3})
	for i, s := range sections {
		cases = append(cases,
			hostile{name: fmt.Sprintf("cut before section %d", i), want: "EOF", data: good[:s.start]},
			hostile{name: fmt.Sprintf("cut inside section %d", i), want: "EOF", data: good[:(s.start+s.end)/2]})
		flipped := slices.Clone(good)
		flipped[(s.payload+s.end-crc32.Size)/2] ^= 0x10
		cases = append(cases, hostile{name: fmt.Sprintf("flipped byte in section %d", i), want: "checksum", data: flipped})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var alloc uint64
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("ReadState panicked: %v", p)
					}
				}()
				var got *SystemState
				got, alloc, err = readAllocs(c.data)
				if err == nil {
					t.Fatalf("ReadState accepted the file: %d shards", len(got.Shards))
				}
			}()
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not say %q", err, c.want)
			}
			if c.bounded && alloc >= 1<<20 {
				t.Errorf("ReadState allocated %d bytes, want under 1 MiB", alloc)
			}
		})
	}
}

// TestStateFileCanonical: one state always writes the same bytes, a
// read gives back a state that writes them again, and a live engine's
// Checkpoint writes what WriteState of its export does. The lru-2 state
// carries a map-backed policy stage, and every state carries maps.
func TestStateFileCanonical(t *testing.T) {
	tr := snapshotTestTrace(t)
	sys, err := NewSystem(snapshotTestConfig("lru-2", 1), WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitBatch(tr.Records[:len(tr.Records)/2]); err != nil {
		t.Fatal(err)
	}
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	first := encodeState(t, st)
	if second := encodeState(t, st); !bytes.Equal(first, second) {
		t.Fatalf("two writes of one state differ (%d and %d bytes)", len(first), len(second))
	}
	loaded, err := ReadState(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeState(t, loaded); !bytes.Equal(first, again) {
		t.Fatalf("write, read and write again differs (%d and %d bytes)", len(first), len(again))
	}
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := sys.Checkpoint(path, nil); err != nil {
		t.Fatal(err)
	}
	if live, err := os.ReadFile(path); err != nil || !bytes.Equal(first, live) {
		t.Fatalf("Checkpoint wrote %d bytes (%v), not WriteState's %d", len(live), err, len(first))
	}
}

// TestCheckpointWithoutSink: a nil second sink makes Checkpoint write
// only the file, which loads back as a state.
func TestCheckpointWithoutSink(t *testing.T) {
	tr := snapshotTestTrace(t)
	sys, err := NewSystem(snapshotTestConfig("lfu", 1), WorkloadFromTrace(tr))
	path := filepath.Join(t.TempDir(), "state.snap")
	if err == nil {
		err = sys.Checkpoint(path, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStateFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestStateCodecFieldLists fails when a state type gains a field the
// state file does not carry. For every exported field of every type the
// file holds, it changes that field in each value of the type in a
// small state and requires the change to survive a write and a read;
// add a new field to both codec methods of its type (statecodec.go).
func TestStateCodecFieldLists(t *testing.T) {
	base := smallState(t, "oracle", true, pendingDisruptions)
	reread := func(st *SystemState) (*SystemState, error) {
		return ReadState(bytes.NewReader(encodeState(t, st)))
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[SystemState](),
		reflect.TypeFor[Config](),
		reflect.TypeFor[hfc.Config](),
		reflect.TypeFor[Disruption](),
		reflect.TypeFor[trace.Record](),
		reflect.TypeFor[ShardState](),
		reflect.TypeFor[EventState](),
		reflect.TypeFor[SessionState](),
		reflect.TypeFor[Counters](),
		reflect.TypeFor[PeerState](),
		reflect.TypeFor[CoaxState](),
		reflect.TypeFor[IndexState](),
		reflect.TypeFor[cache.Entry](),
		reflect.TypeFor[PlacementState](),
	} {
		for _, f := range reflect.VisibleFields(typ) {
			if !f.IsExported() || f.Anonymous {
				continue
			}
			st, err := reread(base)
			if err != nil {
				t.Fatal(err)
			}
			values := valuesOf(reflect.ValueOf(st).Elem(), typ, nil)
			if len(values) == 0 {
				t.Fatalf("the test state holds no %s", typ)
			}
			for _, v := range values {
				perturb(v.FieldByIndex(f.Index))
			}
			got, err := reread(st)
			if typ == reflect.TypeFor[SystemState]() && f.Name == "Version" {
				// The reader knows one schema, so a changed Version
				// fails; that it is noticed shows the file carries it.
				if err == nil || !strings.Contains(err.Error(), "schema version 4") {
					t.Errorf("a state of schema version 4 read back with error %v", err)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got, st) {
				t.Errorf("%s.%s does not survive a state file (error %v): the codec does not carry it", typ, f.Name, err)
			}
		}
	}
}

// valuesOf appends every addressable value of type typ inside v.
func valuesOf(v reflect.Value, typ reflect.Type, out []reflect.Value) []reflect.Value {
	if v.Type() == typ {
		out = append(out, v)
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				out = valuesOf(v.Field(i), typ, out)
			}
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = valuesOf(v.Index(i), typ, out)
		}
	}
	return out
}

// perturb changes v to another value of its type: a number by one, a
// bool or a string visibly, a slice or map by one more zero element, a
// struct by its first field.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Map:
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		k := reflect.New(v.Type().Key()).Elem()
		for v.MapIndex(k).IsValid() {
			k.SetInt(k.Int() + 1)
		}
		v.SetMapIndex(k, reflect.Zero(v.Type().Elem()))
	case reflect.Struct:
		perturb(v.Field(0))
	default:
		panic(fmt.Sprintf("perturb: unhandled kind %s", v.Kind()))
	}
}

// FuzzReadState: ReadState never panics, fails every input it does not
// accept with an error, reads back what it accepted after a write, and
// allocates at most fuzzAllocPerByte bytes per input byte plus
// fuzzAllocFixed. The harness recomputes every section's CRC, so
// mutations reach the decoder's counts and fields rather than stopping
// at the checksum.
//
// fuzzAllocPerByte comes from the largest ratio of an element's memory
// to its least encoded size, which is a shard's. Its section takes at
// least 40 bytes: 35 of fields, a one-byte length and a four-byte CRC.
// Its memory is a 376-byte ShardState in a slice that doubles as
// sections arrive, so up to four of them per shard read (twice as many
// slots as shards, plus the half as many it grew from), and three
// empty bucket maps of 48 bytes: about 1,650 bytes, 41 per byte; the
// check below measures 42-43. Next come a segment row, a 24-byte slice
// header for one byte, and a map entry, up to 42 bytes of table for
// two. The section buffer, doubling up to the largest section, adds 2:
// 48 leaves room for size-class rounding. fuzzAllocFixed covers the
// reader's 4 KiB buffer, up to 64 KiB of section buffer ahead of the
// bytes, the header's decoding and the size classes of small inputs.
const (
	fuzzAllocPerByte = 48
	fuzzAllocFixed   = 512 << 10
)

func FuzzReadState(f *testing.F) {
	// The derivation's worst case, just past a doubling of the shard
	// slice: 1,025 of the smallest shards that carry their three maps
	// (empty), read within the per-byte bound alone.
	var e encoder
	e.head(&SystemState{Version: SnapshotVersion}, 1025)
	worst := slices.Concat([]byte(`{"format":"cablevod-snapshot","version":4,"shards":1025}`+"\n"), sealSection(e.b))
	e.b = e.b[:0]
	e.shard(&ShardState{ServerBuckets: map[int64]int64{}, DemandBuckets: map[int64]int64{}, CoaxBuckets: map[int64]int64{}})
	for range 1025 {
		worst = append(worst, sealSection(e.b)...)
	}
	if _, alloc, err := readAllocs(worst); err != nil || alloc > uint64(fuzzAllocPerByte*len(worst)) {
		f.Fatalf("1,025 smallest shards (%d bytes) allocated %d bytes (error %v), over %d per byte", len(worst), alloc, err, fuzzAllocPerByte)
	}

	for _, st := range []*SystemState{
		smallState(f, "lfu", false, nil),
		smallState(f, "lru-2", false, nil),
		smallState(f, "oracle", true, nil),
		smallState(f, "lfu", false, pendingDisruptions),
		smallState(f, "lfu", false, heterogeneousBoxes),
	} {
		f.Add(encodeState(f, st))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealSections(data)
		st, alloc, err := readAllocs(data)
		if limit := uint64(fuzzAllocPerByte*len(data) + fuzzAllocFixed); alloc > limit {
			t.Fatalf("ReadState of %d bytes allocated %d, over the bound %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if st == nil {
			t.Fatal("ReadState returned neither a state nor an error")
		}
		again, err := ReadState(bytes.NewReader(encodeState(t, st)))
		if err != nil {
			t.Fatalf("an accepted state does not read back: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatal("an accepted state reads back differently")
		}
	})
}
