// Package eventq implements the discrete-event simulation engine that
// drives trace playback: a future-event list backed by a two-level
// calendar queue, a virtual clock, and a run loop.
//
// Events at the same timestamp are delivered in (priority, insertion order)
// so simulations are fully deterministic regardless of map iteration or
// scheduling jitter.
//
// The calendar layout exploits the simulation's schedule shape: almost
// every event lands within minutes of the clock, a thin tail (session
// ends, control timers) within hours. Events bucket by hour in a ring
// of ringHours slots (a spillover list holds the far tail), the
// current hour splits into one-minute buckets, and only the current
// minute is kept sorted — so Schedule is an append for all but the
// current minute, and nothing pays the O(log n) sift of a binary heap
// on the Submit hot path.
package eventq

import (
	"fmt"
	"slices"
	"time"
)

// Priority orders events that share a timestamp. Lower runs first.
// Priorities range over 0–7.
type Priority int

// Standard priorities. SessionEnd runs before SessionStart at the same
// instant so a peer slot freed at time t can serve a request at time t,
// and control events run before either.
const (
	PriorityControl Priority = iota + 1
	PrioritySessionEnd
	PrioritySegment
	PrioritySessionStart
)

// TimeLimit is the first instant the queue cannot hold (2^61 ns, about
// 73 years). An event's ordering key packs its time and priority into
// one word, time<<3 | priority, so times must stay below TimeLimit and
// priorities within 0–7.
const TimeLimit = time.Duration(1) << (64 - prioBits)

// prioBits is the width of the key's priority field.
const prioBits = 3

// Event is a scheduled simulation action.
type Event interface {
	// Execute runs the event at its scheduled time.
	Execute(now time.Duration)
}

// Func adapts a function to the Event interface.
type Func func(now time.Duration)

// Execute calls the wrapped function.
func (f Func) Execute(now time.Duration) { f(now) }

type item struct {
	// key is (at, prio) packed into one word — at<<prioBits | prio — so
	// the hottest comparisons (cur-slice ordering, drain probes) are a
	// single integer compare. It is the item's only copy of both.
	key uint64
	seq uint64
	ev  Event
}

// packKey builds an ordering key from an in-range (at, prio).
func packKey(at time.Duration, prio Priority) uint64 {
	return uint64(at)<<prioBits | uint64(prio)
}

func (it *item) at() time.Duration { return time.Duration(it.key >> prioBits) }

func (it *item) prio() Priority { return Priority(it.key & (1<<prioBits - 1)) }

// minute returns the minute-of-hour the item falls in.
func (it *item) minute() int { return int(it.at() % time.Hour / time.Minute) }

// Calendar geometry. ringHours is a power of two so the slot modulo
// compiles to a mask; the ring covers hours cursor+1 .. cursor+63,
// everything further lives in the far spillover.
const (
	ringHours      = 64
	minutesPerHour = 60
)

// Queue is a discrete-event future-event list with a virtual clock.
// The zero value is not usable; construct with New.
type Queue struct {
	now      time.Duration
	seq      uint64
	executed uint64

	// The calendar cursor: curHour is the hour the minute buckets
	// cover, curMin the minute-of-hour the sorted cur slice covers.
	// Only the run loop moves the cursor (never a peek), and an
	// executed event leaves the clock inside the cursor minute — so
	// the cursor never sits ahead of now, and Schedule (which requires
	// at >= now) can never need a bucket behind it. curMin is -1
	// transiently while an hour spills into its minute buckets.
	curHour int64
	curMin  int

	// cur is the current minute, sorted by (at, prio, seq) and drained
	// from head.
	cur  []*item
	head int

	// minutes buckets the current hour's not-yet-current minutes;
	// hours rings the next ringHours-1 hours; far holds the rest. All
	// three are unsorted, so their bucket-granular emptiness and range
	// checks answer most probes without looking at an item.
	minutes   [minutesPerHour][]*item
	minuteCnt int
	hours     [ringHours][]*item
	ringCnt   int
	far       []*item
	// farMin is the earliest hour in far (meaningful only when far is
	// non-empty). Every cursor advance sweeps far items the window now
	// reaches into the ring, preserving the invariant that far holds
	// only hours >= curHour+ringHours — which is what lets hasBefore
	// and advanceHour consult the ring first.
	farMin int64

	// live counts pending events (Len is O(1)).
	live int

	// free recycles item slots: the queue schedules and pops millions
	// of events per simulated day, and without the freelist every
	// Schedule is one heap allocation.
	free []*item
}

// New returns an empty queue with the clock at zero.
func New() *Queue {
	return &Queue{}
}

// Now returns the current virtual time.
func (q *Queue) Now() time.Duration { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.live }

// Executed returns how many events have been executed so far.
func (q *Queue) Executed() uint64 { return q.executed }

// less orders items by the queue's total order (time, priority,
// insertion sequence). Sequences are unique, so it is a strict order.
func less(a, b *item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// packable reports whether (at, prio) fits an ordering key: a time in
// [0, TimeLimit) and a priority in 0–7.
func packable(at time.Duration, prio Priority) bool {
	return 0 <= at && at < TimeLimit && 0 <= prio && prio < 1<<prioBits
}

// Schedule enqueues ev at absolute time at. A nil event, a time before
// the current clock or at or past TimeLimit, and a priority outside 0–7
// all panic: each is a simulation bug.
func (q *Queue) Schedule(at time.Duration, prio Priority, ev Event) {
	if ev == nil {
		panic("eventq: Schedule called with nil event")
	}
	if at < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", at, q.now))
	}
	if !packable(at, prio) {
		panic(fmt.Sprintf("eventq: cannot schedule at %v with priority %d (times below %v, priorities 0–7)", at, prio, TimeLimit))
	}
	var it *item
	if n := len(q.free); n > 0 {
		it = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		it = new(item)
	}
	it.key, it.seq, it.ev = packKey(at, prio), q.seq, ev
	q.seq++
	q.live++
	q.place(it)
}

// place files an item into the calendar by its hour/minute distance
// from the cursor.
func (q *Queue) place(it *item) {
	h := int64(it.at() / time.Hour)
	switch {
	case h == q.curHour:
		m := it.minute()
		if m <= q.curMin {
			q.insertCur(it)
			return
		}
		q.minutes[m] = append(q.minutes[m], it)
		q.minuteCnt++
	case h-q.curHour < ringHours:
		s := h % ringHours
		q.hours[s] = append(q.hours[s], it)
		q.ringCnt++
	default:
		if len(q.far) == 0 || h < q.farMin {
			q.farMin = h
		}
		q.far = append(q.far, it)
	}
}

// insertCur inserts into the sorted current-minute slice at the item's
// ordered position (binary search over the undrained tail).
func (q *Queue) insertCur(it *item) {
	lo, hi := q.head, len(q.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(q.cur[mid], it) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.cur = append(q.cur, nil)
	copy(q.cur[lo+1:], q.cur[lo:])
	q.cur[lo] = it
}

// release returns an item slot to the freelist.
func (q *Queue) release(it *item) {
	it.ev = nil
	q.free = append(q.free, it)
}

// next pops the earliest pending item, advancing the cursor through
// minute and hour buckets as they empty. The queue must not be empty.
func (q *Queue) next() *item {
	for q.head == len(q.cur) {
		q.cur, q.head = q.cur[:0], 0
		switch {
		case q.minuteCnt > 0:
			m := q.curMin + 1
			for len(q.minutes[m]) == 0 {
				m++
			}
			q.curMin = m
			q.loadMinute(m)
		case q.ringCnt > 0 || len(q.far) > 0:
			q.advanceHour()
		default:
			panic("eventq: next on an empty calendar")
		}
	}
	it := q.cur[q.head]
	q.cur[q.head] = nil
	q.head++
	return it
}

// loadMinute sorts minute bucket m into the cur slice.
func (q *Queue) loadMinute(m int) {
	b := q.minutes[m]
	q.cur = append(q.cur[:0], b...)
	clear(b)
	q.minutes[m] = b[:0]
	q.minuteCnt -= len(q.cur)
	slices.SortFunc(q.cur, func(a, b *item) int {
		if less(a, b) {
			return -1
		}
		return 1
	})
	q.head = 0
}

// advanceHour moves the cursor to the next non-empty hour — from the
// ring if one is within reach (the far invariant guarantees nothing in
// far can be earlier), else jumping to the earliest far hour — then
// sweeps far items the shifted window now reaches and spills the new
// current hour into its minute buckets.
func (q *Queue) advanceHour() {
	next := q.farMin
	if q.ringCnt > 0 {
		for d := int64(1); d < ringHours; d++ {
			if len(q.hours[(q.curHour+d)%ringHours]) > 0 {
				next = q.curHour + d
				break
			}
		}
	}
	q.curHour = next
	q.curMin = -1
	if len(q.far) > 0 && q.farMin < q.curHour+ringHours {
		q.sweepFar()
	}
	q.spillHour(next % ringHours)
}

// sweepFar re-places every far item: those the cursor's ring window now
// covers move into the hour ring (or, for the current hour, into its
// minute buckets — curMin is -1, so none lands in cur), the rest stay
// in far with farMin recomputed, restoring the far invariant after a
// cursor advance.
func (q *Queue) sweepFar() {
	far := q.far
	q.far = far[:0]
	for _, it := range far {
		q.place(it)
	}
	clear(far[len(q.far):])
}

// spillHour distributes an hour-ring bucket into the minute buckets.
func (q *Queue) spillHour(s int64) {
	b := q.hours[s]
	for _, it := range b {
		m := it.minute()
		q.minutes[m] = append(q.minutes[m], it)
	}
	clear(b)
	q.ringCnt -= len(b)
	q.minuteCnt += len(b)
	q.hours[s] = b[:0]
}

// hasBefore reports whether a pending event sorts strictly before a
// hypothetical event at (at, prio), at below TimeLimit. It never moves
// the cursor: bucket ranges answer most queries, and only a bucket
// straddling the threshold is scanned.
func (q *Queue) hasBefore(at time.Duration, prio Priority) bool {
	if q.live == 0 {
		return false
	}
	key := packKey(at, prio)
	if q.head < len(q.cur) {
		return q.cur[q.head].key < key
	}
	if q.minuteCnt > 0 {
		for m := q.curMin + 1; m < minutesPerHour; m++ {
			b := q.minutes[m]
			if len(b) == 0 {
				continue
			}
			start := time.Duration(q.curHour)*time.Hour + time.Duration(m)*time.Minute
			return bucketBefore(b, start, time.Minute, at, key)
		}
	}
	if q.ringCnt > 0 {
		for d := int64(1); d < ringHours; d++ {
			h := q.curHour + d
			b := q.hours[h%ringHours]
			if len(b) == 0 {
				continue
			}
			return bucketBefore(b, time.Duration(h)*time.Hour, time.Hour, at, key)
		}
	}
	for _, it := range q.far {
		if it.key < key {
			return true
		}
	}
	return false
}

// bucketBefore answers hasBefore for the earliest non-empty bucket:
// wholly before the threshold, wholly after, or scanned when the
// threshold falls inside its range.
func bucketBefore(b []*item, start, width, at time.Duration, key uint64) bool {
	if start > at {
		return false
	}
	if start+width <= at {
		return true
	}
	for _, it := range b {
		if it.key < key {
			return true
		}
	}
	return false
}

// step executes the next pending event, advancing the clock to its
// timestamp. The queue must not be empty.
func (q *Queue) step() {
	it := q.next()
	q.live--
	q.now = it.at()
	q.executed++
	ev := it.ev
	q.release(it)
	ev.Execute(q.now)
}

// Run executes events until the queue is empty.
func (q *Queue) Run() {
	for q.live > 0 {
		q.step()
	}
}

// RunBefore executes every pending event strictly ordered before a
// hypothetical event at (at, prio) — that is, events at earlier
// timestamps, plus same-timestamp events with a lower priority — then
// advances the clock to at. It is the streaming engine's pre-ingest
// drain: before an externally injected event at (at, prio) runs, the
// queue reaches exactly the state the batch run loop would have. Every
// pending event is before a time at or past TimeLimit.
func (q *Queue) RunBefore(at time.Duration, prio Priority) {
	if at >= TimeLimit {
		q.Run()
	} else {
		for q.hasBefore(at, prio) {
			q.step()
		}
	}
	if q.now < at {
		q.now = at
	}
}
