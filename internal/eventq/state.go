package eventq

import (
	"fmt"
	"sort"
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
	out := make([]PendingEvent, 0, q.live)
	add := func(b []*item) {
		for _, it := range b {
			out = append(out, PendingEvent{At: it.at(), Prio: it.prio(), Seq: it.seq, Ev: it.ev})
		}
	}
	add(q.cur[q.head:])
	for m := range q.minutes {
		add(q.minutes[m])
	}
	for s := range q.hours {
		add(q.hours[s])
	}
	add(q.far)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Prio != out[j].Prio {
			return out[i].Prio < out[j].Prio
		}
		return out[i].Seq < out[j].Seq
	})
	return out
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
		it := &item{key: packKey(pe.At, pe.Prio), seq: pe.Seq, ev: pe.Ev}
		q.live++
		q.place(it)
	}
	return q, nil
}
