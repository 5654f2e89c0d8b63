package eventq

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// PendingEvent is one scheduled, not-yet-executed event as exported by
// Export: the schedule row plus the event value itself. The queue's
// serialization contract is only the (At, Prio, Seq) ordering key — the
// caller owns turning Ev into something persistable and back.
type PendingEvent struct {
	At   time.Duration
	Prio Priority
	Seq  uint64
	Ev   Event
}

// Export returns every pending event in execution order (time,
// priority, sequence). Together with State it captures everything
// Restore needs to rebuild the queue exactly.
func (q *Queue) Export() []PendingEvent {
	return q.AppendPending(make([]PendingEvent, 0, q.live))
}

// AppendPending is Export appending to dst, so a caller exporting many
// queues can reuse one slice.
func (q *Queue) AppendPending(dst []PendingEvent) []PendingEvent {
	start := len(dst)
	for _, i := range q.cur[q.head:] {
		dst = q.appendItem(dst, i)
	}
	for m := range q.minutes {
		dst = q.appendChain(dst, q.minutes[m])
	}
	for s := range q.hours {
		dst = q.appendChain(dst, q.hours[s])
	}
	dst = q.appendChain(dst, q.far)
	slices.SortFunc(dst[start:], func(a, b PendingEvent) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Prio, b.Prio), cmp.Compare(a.Seq, b.Seq))
	})
	return dst
}

func (q *Queue) appendChain(dst []PendingEvent, c chain) []PendingEvent {
	for i, n := c.head, c.n; n > 0; i, n = q.items[i].next, n-1 {
		dst = q.appendItem(dst, i)
	}
	return dst
}

func (q *Queue) appendItem(dst []PendingEvent, i int32) []PendingEvent {
	it := &q.items[i]
	return append(dst, PendingEvent{At: it.at(), Prio: it.prio(), Seq: it.seq, Ev: it.ev})
}

// State returns the clock and counters a Restore must carry over: the
// current virtual time, the next sequence number to assign, and the
// number of events executed so far.
func (q *Queue) State() (now time.Duration, nextSeq, executed uint64) {
	return q.now, q.seq, q.executed
}

// Restore rebuilds a queue from an exported state. Pending events keep
// their original sequence numbers, so same-instant ordering after a
// save/restore cycle is identical to the uninterrupted run — the
// property the engine's snapshot determinism contract rests on. The
// rows may come from a file, so a row Schedule would panic on is an
// error here.
func Restore(now time.Duration, nextSeq, executed uint64, events []PendingEvent) (*Queue, error) {
	q := &Queue{
		now:      now,
		seq:      nextSeq,
		executed: executed,
		// The cursor starts at the clock's own minute, exactly where an
		// uninterrupted run's cursor can be at most — every pending
		// event is at or after now, so each files at or ahead of it.
		curHour: int64(now / time.Hour),
		curMin:  int(now % time.Hour / time.Minute),
		free:    -1,
	}
	for i, pe := range events {
		if pe.Ev == nil {
			return nil, fmt.Errorf("eventq: restore: event %d is nil", i)
		}
		if pe.At < now {
			return nil, fmt.Errorf("eventq: restore: event %d at %v before clock %v", i, pe.At, now)
		}
		if !packable(pe.At, pe.Prio) {
			return nil, fmt.Errorf("eventq: restore: event %d at %v with priority %d is out of range (times below %v, priorities 0–7)",
				i, pe.At, pe.Prio, TimeLimit)
		}
		if pe.Seq >= nextSeq {
			return nil, fmt.Errorf("eventq: restore: event %d sequence %d not below next %d", i, pe.Seq, nextSeq)
		}
		q.add(packKey(pe.At, pe.Prio), pe.Seq, pe.Ev)
	}
	return q, nil
}
