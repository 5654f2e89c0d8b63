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
// of ringHours slots (a spillover bucket holds the far tail), the
// current hour splits into one-minute buckets, and only the current
// minute is kept sorted — so Schedule is an append for all but the
// current minute, and nothing pays the O(log n) sift of a binary heap
// on the Submit hot path.
//
// Pending events live by value in one slab per queue; an executed
// event's slot joins a free chain and is reused by the next Schedule.
// Every bucket is a (head, tail, count) chain through the slab in
// insertion order, and the current minute is a sorted slice of slab
// indexes gathered from its chain. So the queue's storage is the most
// events ever pending at once, not a peak per bucket, and an event is
// not a heap object of its own.
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

// item is one pending event, held by value in its queue's slab.
type item struct {
	// key is (at, prio) packed into one word — at<<prioBits | prio — so
	// the hottest comparisons (cur-slice ordering, drain probes) are a
	// single integer compare. It is the item's only copy of both.
	key uint64
	seq uint64
	ev  Event
	// next is the slab slot after this one in its bucket's chain, or in
	// the free chain once the item is released.
	next int32
}

// packKey builds an ordering key from an in-range (at, prio).
func packKey(at time.Duration, prio Priority) uint64 {
	return uint64(at)<<prioBits | uint64(prio)
}

func (it *item) at() time.Duration { return time.Duration(it.key >> prioBits) }

func (it *item) prio() Priority { return Priority(it.key & (1<<prioBits - 1)) }

// minute returns the minute-of-hour the item falls in.
func (it *item) minute() int { return int(it.at() % time.Hour / time.Minute) }

// chain is a bucket: the slab slots of its items linked through
// item.next in insertion order. head and tail mean nothing while n is
// 0, so the zero value is an empty bucket.
type chain struct {
	head, tail, n int32
}

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

	// items is the slab every pending event lives in, by value; free
	// chains its released slots (-1: none). It is as long as the most
	// events ever pending at once, and Schedule allocates nothing once
	// it is.
	items []item
	free  int32

	// cur is the current minute's slots, sorted by (at, prio, seq) and
	// drained from head.
	cur  []int32
	head int

	// minutes buckets the current hour's not-yet-current minutes;
	// hours rings the next ringHours-1 hours; far holds the rest. All
	// three are unsorted, so their bucket-granular emptiness and range
	// checks answer most probes without looking at an item.
	minutes   [minutesPerHour]chain
	minuteCnt int
	hours     [ringHours]chain
	ringCnt   int
	far       chain
	// farMin is the earliest hour in far (meaningful only when far is
	// non-empty). Every cursor advance sweeps far items the window now
	// reaches into the ring, preserving the invariant that far holds
	// only hours >= curHour+ringHours — which is what lets hasBefore
	// and advanceHour consult the ring first.
	farMin int64

	// live counts pending events (Len is O(1)).
	live int
}

// New returns an empty queue with the clock at zero.
func New() *Queue {
	return &Queue{free: -1}
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
	q.add(packKey(at, prio), q.seq, ev)
	q.seq++
}

// add files a new pending event into a slab slot, reusing a released
// one when there is one.
func (q *Queue) add(key, seq uint64, ev Event) {
	i := q.free
	if i >= 0 {
		q.free = q.items[i].next
		q.items[i] = item{key: key, seq: seq, ev: ev}
	} else {
		i = int32(len(q.items))
		q.items = append(q.items, item{key: key, seq: seq, ev: ev})
	}
	q.live++
	q.place(i)
}

// release returns slot i to the free chain.
func (q *Queue) release(i int32) {
	q.items[i].ev = nil
	q.items[i].next = q.free
	q.free = i
}

// push appends slot i to bucket c.
func (q *Queue) push(c *chain, i int32) {
	q.items[i].next = -1
	if c.n == 0 {
		c.head = i
	} else {
		q.items[c.tail].next = i
	}
	c.tail = i
	c.n++
}

// place files slot i into the calendar by its hour/minute distance
// from the cursor.
func (q *Queue) place(i int32) {
	it := &q.items[i]
	h := int64(it.at() / time.Hour)
	switch {
	case h == q.curHour:
		m := it.minute()
		if m <= q.curMin {
			q.insertCur(i)
			return
		}
		q.push(&q.minutes[m], i)
		q.minuteCnt++
	case h-q.curHour < ringHours:
		q.push(&q.hours[h%ringHours], i)
		q.ringCnt++
	default:
		if q.far.n == 0 || h < q.farMin {
			q.farMin = h
		}
		q.push(&q.far, i)
	}
}

// insertCur inserts slot i into the sorted current-minute slice at its
// item's ordered position (binary search over the undrained tail).
func (q *Queue) insertCur(i int32) {
	it := &q.items[i]
	lo, hi := q.head, len(q.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(&q.items[q.cur[mid]], it) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.cur = append(q.cur, 0)
	copy(q.cur[lo+1:], q.cur[lo:])
	q.cur[lo] = i
}

// next pops the earliest pending slot, advancing the cursor through
// minute and hour buckets as they empty. The queue must not be empty.
func (q *Queue) next() int32 {
	for q.head == len(q.cur) {
		q.cur, q.head = q.cur[:0], 0
		switch {
		case q.minuteCnt > 0:
			m := q.curMin + 1
			for q.minutes[m].n == 0 {
				m++
			}
			q.curMin = m
			q.loadMinute(m)
		case q.ringCnt > 0 || q.far.n > 0:
			q.advanceHour()
		default:
			panic("eventq: next on an empty calendar")
		}
	}
	i := q.cur[q.head]
	q.head++
	return i
}

// loadMinute gathers minute bucket m's chain into the cur slice, sorted.
func (q *Queue) loadMinute(m int) {
	c := q.minutes[m]
	q.minutes[m] = chain{}
	q.cur = q.cur[:0]
	for i, n := c.head, c.n; n > 0; i, n = q.items[i].next, n-1 {
		q.cur = append(q.cur, i)
	}
	q.minuteCnt -= int(c.n)
	slices.SortFunc(q.cur, func(a, b int32) int {
		if less(&q.items[a], &q.items[b]) {
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
			if q.hours[(q.curHour+d)%ringHours].n > 0 {
				next = q.curHour + d
				break
			}
		}
	}
	q.curHour = next
	q.curMin = -1
	if q.far.n > 0 && q.farMin < q.curHour+ringHours {
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
	c := q.far
	q.far = chain{}
	for i, n := c.head, c.n; n > 0; n-- {
		next := q.items[i].next
		q.place(i)
		i = next
	}
}

// spillHour distributes an hour-ring bucket into the minute buckets.
func (q *Queue) spillHour(s int64) {
	c := q.hours[s]
	q.hours[s] = chain{}
	for i, n := c.head, c.n; n > 0; n-- {
		next := q.items[i].next
		q.push(&q.minutes[q.items[i].minute()], i)
		i = next
	}
	q.ringCnt -= int(c.n)
	q.minuteCnt += int(c.n)
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
		return q.items[q.cur[q.head]].key < key
	}
	if q.minuteCnt > 0 {
		for m := q.curMin + 1; m < minutesPerHour; m++ {
			if q.minutes[m].n == 0 {
				continue
			}
			start := time.Duration(q.curHour)*time.Hour + time.Duration(m)*time.Minute
			return q.bucketBefore(q.minutes[m], start, time.Minute, at, key)
		}
	}
	if q.ringCnt > 0 {
		for d := int64(1); d < ringHours; d++ {
			h := q.curHour + d
			if q.hours[h%ringHours].n == 0 {
				continue
			}
			return q.bucketBefore(q.hours[h%ringHours], time.Duration(h)*time.Hour, time.Hour, at, key)
		}
	}
	return q.chainBefore(q.far, key)
}

// bucketBefore answers hasBefore for the earliest non-empty bucket:
// wholly before the threshold, wholly after, or scanned when the
// threshold falls inside its range.
func (q *Queue) bucketBefore(c chain, start, width, at time.Duration, key uint64) bool {
	if start > at {
		return false
	}
	if start+width <= at {
		return true
	}
	return q.chainBefore(c, key)
}

// chainBefore reports whether any item in c sorts before key.
func (q *Queue) chainBefore(c chain, key uint64) bool {
	for i, n := c.head, c.n; n > 0; i, n = q.items[i].next, n-1 {
		if q.items[i].key < key {
			return true
		}
	}
	return false
}

// step executes the next pending event, advancing the clock to its
// timestamp. The queue must not be empty.
func (q *Queue) step() {
	i := q.next()
	q.live--
	q.now = q.items[i].at()
	q.executed++
	ev := q.items[i].ev
	q.release(i)
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
