package eventq

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refQueue is the O(n²) reference future-event list the calendar queue
// is checked against: a plain slice scanned for its minimum key. Too
// slow to ship, trivially correct.
type refQueue struct {
	now   time.Duration
	seq   uint64
	items []*refItem
}

type refItem struct {
	at   time.Duration
	prio Priority
	seq  uint64
	id   int
}

func (r *refQueue) schedule(at time.Duration, prio Priority, id int) *refItem {
	it := &refItem{at: at, prio: prio, seq: r.seq, id: id}
	r.seq++
	r.items = append(r.items, it)
	return it
}

func (r *refQueue) min() *refItem {
	var best *refItem
	for _, it := range r.items {
		if best == nil ||
			it.at < best.at ||
			(it.at == best.at && it.prio < best.prio) ||
			(it.at == best.at && it.prio == best.prio && it.seq < best.seq) {
			best = it
		}
	}
	return best
}

func (r *refQueue) pop(it *refItem) {
	for i, x := range r.items {
		if x == it {
			r.items = append(r.items[:i], r.items[i+1:]...)
			return
		}
	}
}

// runBefore mirrors Queue.RunBefore on the reference model, returning
// executed ids in order.
func (r *refQueue) runBefore(at time.Duration, prio Priority) []int {
	var out []int
	for {
		it := r.min()
		if it == nil || it.at > at || (it.at == at && it.prio >= prio) {
			break
		}
		r.pop(it)
		r.now = it.at
		out = append(out, it.id)
	}
	if r.now < at {
		r.now = at
	}
	return out
}

// TestCalendarMatchesReference drives the calendar queue and the
// reference list through long randomized schedules — deliberately
// including (at, prio) ties, zero delays, every priority, and horizons
// spanning the current minute, later minutes, the hour ring, and the
// far spillover — asserting identical execution order throughout.
func TestCalendarMatchesReference(t *testing.T) {
	// Delay horizons chosen to exercise every calendar level.
	horizons := []time.Duration{
		45 * time.Second, // current + next minute
		40 * time.Minute, // minute buckets
		30 * time.Hour,   // hour ring
		200 * time.Hour,  // far spillover (≥ 64h)
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := New()
		ref := &refQueue{}
		var got []int
		nextID := 0
		var refItems []*refItem

		schedule := func() {
			h := horizons[rng.Intn(len(horizons))]
			at := q.Now() + time.Duration(rng.Int63n(int64(h)))
			if rng.Intn(4) == 0 && len(refItems) > 0 {
				// Reuse an earlier timestamp (if still legal) to force
				// exact (at, prio) ties resolved by insertion order.
				prev := refItems[rng.Intn(len(refItems))].at
				if prev >= q.Now() {
					at = prev
				}
			}
			prio := Priority(rng.Intn(8))
			id := nextID
			nextID++
			q.Schedule(at, prio, Func(func(time.Duration) { got = append(got, id) }))
			refItems = append(refItems, ref.schedule(at, prio, id))
		}

		for round := 0; round < 120; round++ {
			for i, n := 0, rng.Intn(40); i < n; i++ {
				schedule()
			}
			// Drain a random span the way the engine does per record.
			at := q.Now() + time.Duration(rng.Int63n(int64(2*time.Hour)))
			prio := Priority(rng.Intn(8))
			q.RunBefore(at, prio)
			want := ref.runBefore(at, prio)
			if len(got) != len(want) {
				t.Fatalf("seed %d round %d: executed %d events, reference %d", seed, round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d round %d: execution order diverged at %d: got id %d, want %d",
						seed, round, i, got[i], want[i])
				}
			}
			if q.Now() != ref.now {
				t.Fatalf("seed %d round %d: clock %v, reference %v", seed, round, q.Now(), ref.now)
			}
			got, want = got[:0], nil
		}
		// Final full drain must agree too.
		q.Run()
		want := ref.runBefore(TimeLimit, 0)
		if len(got) != len(want) {
			t.Fatalf("seed %d drain: %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d drain: order diverged at %d", seed, i)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: %d events left after drain", seed, q.Len())
		}
	}
}

// TestExportRestoreAcrossBuckets round-trips a queue whose pending
// events sit in every calendar level — the sorted current minute,
// minute buckets, the hour ring, and the far spillover — and checks
// the restored queue executes the identical sequence.
func TestExportRestoreAcrossBuckets(t *testing.T) {
	build := func() (*Queue, map[uint64]int, *[]int) {
		rng := rand.New(rand.NewSource(7))
		q := New()
		ids := map[uint64]int{}
		var got []int
		id := 0
		add := func(at time.Duration, prio Priority) {
			i := id
			id++
			q.Schedule(at, prio, Func(func(time.Duration) { got = append(got, i) }))
			ids[uint64(i)] = i
		}
		// March the clock to mid-hour so buckets behind the cursor exist.
		add(10*time.Minute+30*time.Second, PrioritySegment)
		q.RunBefore(10*time.Minute+30*time.Second, PrioritySessionStart)
		got = got[:0]
		for i := 0; i < 300; i++ {
			var at time.Duration
			switch i % 4 {
			case 0: // current minute
				at = q.Now() + time.Duration(rng.Int63n(int64(25*time.Second)))
			case 1: // later minutes this hour
				at = q.Now() + time.Minute + time.Duration(rng.Int63n(int64(40*time.Minute)))
			case 2: // hour ring
				at = q.Now() + time.Hour + time.Duration(rng.Int63n(int64(50*time.Hour)))
			default: // far spillover
				at = q.Now() + 70*time.Hour + time.Duration(rng.Int63n(int64(400*time.Hour)))
			}
			add(at, Priority(rng.Intn(4)+1))
		}
		return q, ids, &got
	}

	q1, _, got1 := build()
	q2, _, got2 := build()

	// Round-trip q2 through Export/State/Restore.
	now, seq, executed := q2.State()
	pending := q2.Export()
	if len(pending) != q2.Len() {
		t.Fatalf("exported %d events, Len says %d", len(pending), q2.Len())
	}
	q2r, err := Restore(now, seq, executed, pending)
	if err != nil {
		t.Fatal(err)
	}
	if q2r.Len() != q1.Len() {
		t.Fatalf("restored Len = %d, want %d", q2r.Len(), q1.Len())
	}

	q1.Run()
	q2r.Run()
	if len(*got1) != len(*got2) {
		t.Fatalf("restored run executed %d events, baseline %d", len(*got2), len(*got1))
	}
	for i := range *got1 {
		if (*got1)[i] != (*got2)[i] {
			t.Fatalf("restored order diverged at %d: got %d, want %d", i, (*got2)[i], (*got1)[i])
		}
	}
	if q1.Now() != q2r.Now() || q1.Executed() != q2r.Executed() {
		t.Fatalf("restored clock/counters diverged: %v/%d vs %v/%d",
			q2r.Now(), q2r.Executed(), q1.Now(), q1.Executed())
	}
}

// TestRestoreRejectsUnqueueableRows: snapshot rows come from outside the
// program, so a row Schedule would panic on is a Restore error instead.
func TestRestoreRejectsUnqueueableRows(t *testing.T) {
	noop := Func(func(time.Duration) {})
	cases := []struct {
		name string
		row  PendingEvent
	}{
		{"priority -1", PendingEvent{At: time.Hour, Prio: -1, Ev: noop}},
		{"priority 8", PendingEvent{At: time.Hour, Prio: 8, Ev: noop}},
		{"at limit", PendingEvent{At: TimeLimit, Prio: 1, Ev: noop}},
		{"past limit", PendingEvent{At: 1<<63 - 1, Prio: 1, Ev: noop}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok := PendingEvent{At: time.Minute, Prio: 7, Ev: noop}
			_, err := Restore(0, 2, 0, []PendingEvent{ok, tc.row})
			if err == nil || !strings.Contains(err.Error(), "event 1") || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("Restore error = %v, want event 1 out of range", err)
			}
		})
	}
	q, err := Restore(0, 2, 0, []PendingEvent{
		{At: TimeLimit - 1, Prio: 7, Seq: 0, Ev: noop},
		{At: TimeLimit - 1, Prio: 0, Seq: 1, Ev: noop},
	})
	if err != nil {
		t.Fatalf("Restore of in-range rows: %v", err)
	}
	if got := q.Export(); len(got) != 2 || got[0].Prio != 0 || got[1].Prio != 7 || got[1].At != TimeLimit-1 {
		t.Fatalf("restored rows export as %+v", got)
	}
}
