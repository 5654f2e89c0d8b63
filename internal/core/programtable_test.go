package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cablevod/internal/cache"
	"cablevod/internal/hfc"
	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// segmentLog records every resolved segment request.
type segmentLog struct{ events []SegmentEvent }

func (l *segmentLog) ObserveSession(int, trace.ProgramID, time.Duration) {}
func (l *segmentLog) ObserveSegment(ev SegmentEvent)                     { l.events = append(l.events, ev) }

// TestSessionKeyReuseIsNotCachedMiss: a session memoizes its program's
// table key at start. When the program is evicted mid-session and the
// key is recycled for another program, the session's next segment must
// be a plain not-cached miss — never a broadcast from the other
// program's peers.
func TestSessionKeyReuseIsNotCachedMiss(t *testing.T) {
	// Four boxes of 400 MB: each holds one 5-minute segment, the pooled
	// 1.6 GB one 20-minute program, so every admission evicts the
	// previous program. LRU scores hold no keys, so an evicted
	// program's key is recycled as soon as its placement is released.
	users := []trace.UserID{1, 2, 3, 4}
	cfg := Config{
		Topology:   hfc.Config{NeighborhoodSize: len(users), PerPeerStorage: 400 * units.MB},
		Strategy:   StrategyLRU,
		Fill:       FillImmediate,
		WarmupDays: 0,
	}
	lengths := map[trace.ProgramID]time.Duration{0: 20 * time.Minute, 1: 20 * time.Minute, 2: 20 * time.Minute, 3: 20 * time.Minute}
	sys, err := NewSystem(cfg, Workload{Users: users, Lengths: lengths})
	if err != nil {
		t.Fatal(err)
	}
	log := &segmentLog{}
	sys.SetCollector(log)
	submit := func(user trace.UserID, p trace.ProgramID, at time.Duration) {
		t.Helper()
		rec := trace.Record{User: user, Program: p, Start: at, Duration: 20 * time.Minute}
		if err := sys.SubmitBatch([]trace.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	is := sys.shards[0].is

	submit(1, 1, 0)           // admits program 1 (first fetch)
	submit(2, 1, time.Minute) // the watched session: a hit on segment 0
	k1 := is.cache.Key(1)
	if k1 == cache.NoKey {
		t.Fatal("program 1 holds no key after admission")
	}
	submit(3, 2, 2*time.Minute) // evicts program 1; k1 recycled once its placement goes
	submit(4, 3, 3*time.Minute) // evicts program 2; program 3 takes the recycled k1
	if got := is.cache.Key(3); got != k1 {
		t.Fatalf("program 3 got key %d, want program 1's recycled key %d (the test needs the reuse)", got, k1)
	}
	if is.PlacedSegments(3) == 0 {
		t.Fatal("program 3 is not placed; the watched session could not be misrouted to it")
	}
	if _, err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// The watched session's segments: segment 0 at 1 min (a hit), then
	// segment 1 at 5 min, after the key was reused.
	var watched []SegmentEvent
	for _, ev := range log.events {
		if ev.Program == 1 && !ev.FirstFetch {
			watched = append(watched, ev)
		}
	}
	if len(watched) < 2 {
		t.Fatalf("watched session logged %d segments, want at least 2", len(watched))
	}
	if watched[0].Outcome != ServedByPeer {
		t.Errorf("segment before eviction: %v, want hit", watched[0].Outcome)
	}
	for _, ev := range watched[1:] {
		if ev.Outcome != MissNotCached {
			t.Errorf("segment at %v after key reuse: %v, want %v", ev.At, ev.Outcome, MissNotCached)
		}
	}
}

// TestHostileProgramIDIsCleanMiss: a program ID far outside the catalog
// costs one table key like any other program — a clean miss, with no
// allocation proportional to the ID.
func TestHostileProgramIDIsCleanMiss(t *testing.T) {
	tr := shardTestTrace(t, 1)
	sys, err := NewSystem(shardTestConfig(StrategyLFU, FillImmediate, 1), WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	log := &segmentLog{}
	sys.SetCollector(log)
	half := tr.Records[:len(tr.Records)/2]
	if err := sys.SubmitBatch(half); err != nil {
		t.Fatal(err)
	}
	last := half[len(half)-1]
	hostile := trace.Record{User: last.User, Program: math.MaxInt32, Start: last.Start, Duration: 12 * time.Minute}
	admissions := sys.Snapshot().Counters.Admissions

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := sys.SubmitBatch([]trace.Record{hostile}); err != nil {
		t.Fatalf("hostile program ID rejected: %v", err)
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
		t.Errorf("submitting program %d allocated %d bytes", hostile.Program, grew)
	}
	if got := sys.Snapshot().Counters.Admissions; got != admissions {
		t.Errorf("admissions %d -> %d, want none for the unknown-length program", admissions, got)
	}
	if _, err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	segments := 0
	for _, ev := range log.events {
		if ev.Program != hostile.Program {
			continue
		}
		segments++
		if ev.FirstFetch || ev.Outcome != MissNotCached {
			t.Errorf("hostile segment at %v: %v (first fetch %v), want %v", ev.At, ev.Outcome, ev.FirstFetch, MissNotCached)
		}
	}
	if segments == 0 {
		t.Error("hostile session served no segments")
	}
}

// TestPlannerOnlyWithPlannerStage: pipelines without a planner stage
// leave the index server plannerless, so their session starts skip the
// plan call and the upgrade probe; prefix-lfu keeps its planner.
func TestPlannerOnlyWithPlannerStage(t *testing.T) {
	tr := shardTestTrace(t, 1)
	for _, tc := range []struct {
		strategy string
		planner  bool
	}{
		{"lfu", false},
		{"lru", false},
		{"oracle", false},
		{"prefix-lfu", true},
	} {
		cfg := shardTestConfig(0, FillImmediate, 1)
		cfg.StrategyName = tc.strategy
		sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range sys.shards {
			if got := sh.is.planner != nil; got != tc.planner {
				t.Errorf("%s: index server has planner = %v, want %v", tc.strategy, got, tc.planner)
			}
		}
	}
}

// TestRestoreRejectsMalformedPlacements: restore rejects placement rows
// that no engine could have written instead of allocating for them.
func TestRestoreRejectsMalformedPlacements(t *testing.T) {
	tr := snapshotTestTrace(t)
	sys, err := NewSystem(snapshotTestConfig("lfu", 1), WorkloadFromTrace(tr))
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
	if len(st.Shards[0].Index.Placements) == 0 {
		t.Fatal("no placements to tamper with")
	}
	if _, err := RestoreSystem(st, RestoreOptions{}); err != nil {
		t.Fatalf("untampered state: %v", err)
	}
	boxes := len(st.Shards[0].Peers)
	for name, tamper := range map[string]func(ps *PlacementState){
		"no replicas":        func(ps *PlacementState) { ps.Replicas = 0 },
		"replicas overflow":  func(ps *PlacementState) { ps.Replicas = math.MaxInt32 + 1 },
		"negative rejection": func(ps *PlacementState) { ps.RejectedSegs = -1 },
		"more segments than the program": func(ps *PlacementState) {
			ps.Slots = append(ps.Slots, make([][]int, 1000)...)
		},
		"more copies than replicas": func(ps *PlacementState) {
			ps.Slots = append([][]int{{0, 1}}, ps.Slots[1:]...)
			ps.Replicas = 1
		},
		"more copies than boxes": func(ps *PlacementState) {
			ps.Replicas = boxes + 1
			all := make([]int, boxes+1)
			for i := range all {
				all[i] = i % boxes
			}
			ps.Slots = append([][]int{all}, ps.Slots[1:]...)
		},
		"two copies on one box": func(ps *PlacementState) {
			ps.Replicas = 2
			ps.Slots = append([][]int{{0, 0}}, ps.Slots[1:]...)
		},
	} {
		bad := *st
		bad.Shards = append([]ShardState(nil), st.Shards...)
		placements := append([]PlacementState(nil), st.Shards[0].Index.Placements...)
		tamper(&placements[0])
		bad.Shards[0].Index.Placements = placements
		if _, err := RestoreSystem(&bad, RestoreOptions{}); err == nil {
			t.Errorf("%s: restore accepted the placement", name)
		}
	}
}

// TestRestoreRejectsCorruptMeters: a meter grows to the largest hour
// restored into it, so restore bounds the hours by the snapshot clock (a
// transfer served by then ends at most one segment later) and rejects
// negative bits, instead of allocating terabytes for a corrupt row.
func TestRestoreRejectsCorruptMeters(t *testing.T) {
	tr := snapshotTestTrace(t)
	sys, err := NewSystem(snapshotTestConfig("lfu", 1), WorkloadFromTrace(tr))
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
	last := int64((st.LastStart + units.SegmentDuration) / time.Hour)
	for name, buckets := range map[string]map[int64]int64{
		"hour 2^40":                   {1 << 40: 8},
		"hour 100000":                 {100000: 8},
		"hour past the last transfer": {last + 1: 8},
		"negative hour":               {-1: 8},
		"negative bits":               {0: -8},
	} {
		for _, meter := range []string{"server", "demand", "coax"} {
			bad := *st
			bad.Shards = append([]ShardState(nil), st.Shards...)
			sh := &bad.Shards[1]
			switch meter {
			case "server":
				sh.ServerBuckets = buckets
			case "demand":
				sh.DemandBuckets = buckets
			case "coax":
				sh.CoaxBuckets = buckets
			}
			if _, err := RestoreSystem(&bad, RestoreOptions{}); err == nil {
				t.Errorf("%s meter, %s: restore accepted the buckets", meter, name)
			}
		}
	}
	ok := *st
	ok.Shards = append([]ShardState(nil), st.Shards...)
	ok.Shards[1].ServerBuckets = map[int64]int64{last: 8}
	if _, err := RestoreSystem(&ok, RestoreOptions{}); err != nil {
		t.Errorf("bucket in the last hour a transfer reaches: %v", err)
	}
}

// TestRestoredPlacementSizedByCopies: a restored placement takes cells
// for the copies its row carries, not for its replica count, so a row
// claiming MaxInt32 replicas over empty segments costs one cell per
// segment.
func TestRestoredPlacementSizedByCopies(t *testing.T) {
	tr := snapshotTestTrace(t)
	sys, err := NewSystem(snapshotTestConfig("lfu", 1), WorkloadFromTrace(tr))
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
	placements := append([]PlacementState(nil), st.Shards[0].Index.Placements...)
	ps := &placements[0]
	ps.Replicas = math.MaxInt32
	ps.Slots = make([][]int, len(ps.Slots))
	st.Shards = append([]ShardState(nil), st.Shards...)
	st.Shards[0].Index.Placements = placements
	restored, err := RestoreSystem(st, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	pp := restored.shards[0].is.placementOf(ps.Program)
	if pp == nil {
		t.Fatalf("program %d not placed after restore", ps.Program)
	}
	if len(pp.cells) != len(ps.Slots) {
		t.Errorf("restored placement holds %d cells for %d empty segments, want one per segment",
			len(pp.cells), len(ps.Slots))
	}
}

// TestAddCopyWidensNarrowPlacement: a fill past a restored placement's
// width re-lays it at the full stride, keeping every copy in order.
func TestAddCopyWidensNarrowPlacement(t *testing.T) {
	nb := buildNeighborhood(t, 4, units.GB)
	is := newIS(t, nb, FillOnBroadcast)
	pp := programPlacement{cells: []int32{2, -1, 3}, stride: 1, replicas: 3}
	is.addCopy(&pp, 0, 1)
	if pp.stride != 3 {
		t.Fatalf("stride after widening = %d, want min(3 replicas, 4 boxes) = 3", pp.stride)
	}
	want := [][]int32{{2, 1}, {}, {3}}
	if pp.segs() != len(want) {
		t.Fatalf("segments after widening = %d, want %d", pp.segs(), len(want))
	}
	for idx, w := range want {
		if got := pp.copies(idx); !slices.Equal(got, w) {
			t.Errorf("segment %d copies = %v, want %v", idx, got, w)
		}
	}
}

// TestSingleReplicaPlacementOneCellPerSegment: under the paper's
// single-replica plan a placement holds one cell per cached segment,
// under either fill mode, and a restore keeps that width.
func TestSingleReplicaPlacementOneCellPerSegment(t *testing.T) {
	tr := snapshotTestTrace(t)
	for _, fill := range []FillMode{FillImmediate, FillOnBroadcast} {
		cfg := snapshotTestConfig("lfu", 1)
		cfg.Fill = fill
		sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
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
		restored, err := RestoreSystem(st, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*System{"live": sys, "restored": restored} {
			placed := 0
			for _, sh := range s.shards {
				for k := range sh.is.placement {
					pp := &sh.is.placement[k]
					if pp.replicas == 0 {
						continue
					}
					placed++
					if pp.stride != 1 || len(pp.cells) != pp.segs() {
						t.Fatalf("fill %v, %s: placement of %d segments holds %d cells at stride %d, want one per segment",
							fill, name, pp.segs(), len(pp.cells), pp.stride)
					}
				}
			}
			if placed == 0 {
				t.Fatalf("fill %v, %s: nothing placed", fill, name)
			}
		}
	}
}

// TestRestoreOnBroadcastMatchesUninterrupted: under on-broadcast fill
// with two replicas, restored rows carry fewer copies than their plan
// and widen on later fills; the restored run still matches the
// uninterrupted one.
func TestRestoreOnBroadcastMatchesUninterrupted(t *testing.T) {
	tr := snapshotTestTrace(t)
	cfg := snapshotTestConfig("lfu", 1)
	cfg.Fill = FillOnBroadcast
	cfg.Replicas = 2
	cut := len(tr.Records) / 2
	base, err := NewSystem(cfg, WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.SubmitBatch(tr.Records); err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Close()
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(cfg, WorkloadFromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SubmitBatch(tr.Records[:cut]); err != nil {
		t.Fatal(err)
	}
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(st, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	narrow := 0
	for _, sh := range restored.shards {
		for k := range sh.is.placement {
			if pp := &sh.is.placement[k]; pp.replicas != 0 && int(pp.stride) < sh.is.fullStride(int(pp.replicas)) {
				narrow++
			}
		}
	}
	if narrow == 0 {
		t.Fatal("no restored placement is narrower than its plan; the widening path is not exercised")
	}
	if err := restored.SubmitBatch(tr.Records[cut:]); err != nil {
		t.Fatal(err)
	}
	restRes, err := restored.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeResult(restRes), normalizeResult(baseRes); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged:\nbase:     %+v\nrestored: %+v", want, got)
	}
}
