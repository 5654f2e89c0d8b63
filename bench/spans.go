package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// span that caused it (a pass, a long-run call, a probe); 0 marks a root.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run writes them
// out. A nil tracer records nothing, so untraced passes share the traced
// passes' code and only pay for the clock reads they need anyway.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timer times one call and, under a tracer, records it as a span.
type timer struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin starts timing a call named name, caused by parent.
func (t *tracer) begin(name string, parent int64) timer {
	tm := timer{t: t, parent: parent, name: name, start: time.Now()}
	if t != nil {
		tm.id = t.next.Add(1)
	}
	return tm
}

// end stops the timer, records its span, and returns the call's duration.
func (tm timer) end() time.Duration {
	now := time.Now()
	tm.t.record(tm.id, tm.parent, tm.name, tm.start, now)
	return now.Sub(tm.start)
}

// record adds a span whose times were taken elsewhere (long-run legs are
// stamped from OnLeg callbacks). An id of 0 allocates one. It returns the
// span's id, 0 under a nil tracer.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes sums each span name's self time: a span's duration minus the
// part of its interval its children cover. Children that overlap each
// other (the scraper's requests beside the submitter's) count once.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered returns how many nanoseconds of s's interval the union of
// kids covers.
func covered(s span, kids []span) int64 {
	type iv struct{ from, to int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		from, to := max(k.Start, s.Start), min(k.End, s.End)
		if to > from {
			ivs = append(ivs, iv{from, to})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var total, reach int64
	for _, v := range ivs {
		if v.from < reach {
			v.from = reach
		}
		if v.to > v.from {
			total += v.to - v.from
			reach = v.to
		}
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the self-time table, heaviest layer first.
func printSelfTimes(w io.Writer, workload string, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "self time by span, %s (%.3f s traced)\n", workload, total.Seconds())
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %10.1f ms  %5.1f%%\n", n, float64(self[n])/float64(time.Millisecond), 100*float64(self[n])/float64(total))
	}
}
