// Package popularity implements the access-frequency machinery behind the
// paper's LFU strategy: sliding-window access counters (the "history of all
// events that occur within the last N hours", Section IV-B.2), a global
// aggregator with batched propagation lag (the Figure-13 variants), and the
// introduction-decay analysis of Figure 12.
package popularity

import (
	"fmt"
	"time"

	"cablevod/internal/trace"
)

type event struct {
	program trace.ProgramID
	at      time.Duration
}

// Window counts program accesses within a sliding horizon. A zero horizon
// means "remember nothing": every count is zero, which degenerates LFU into
// LRU exactly as the paper notes for history size 0.
type Window struct {
	horizon time.Duration
	events  []event
	head    int
	counts  map[trace.ProgramID]int
}

// NewWindow returns a window with the given horizon. Horizon must be >= 0.
func NewWindow(horizon time.Duration) *Window {
	if horizon < 0 {
		panic(fmt.Sprintf("popularity: negative horizon %v", horizon))
	}
	return &Window{
		horizon: horizon,
		counts:  make(map[trace.ProgramID]int),
	}
}

// Record notes an access to p at time now. Accesses must be recorded in
// non-decreasing time order.
func (w *Window) Record(p trace.ProgramID, now time.Duration) {
	if w.horizon == 0 {
		return
	}
	if n := len(w.events); n > w.head && w.events[n-1].at > now {
		panic(fmt.Sprintf("popularity: out-of-order access at %v after %v", now, w.events[n-1].at))
	}
	w.events = append(w.events, event{program: p, at: now})
	w.counts[p]++
	w.Advance(now)
}

// Advance prunes accesses older than now-horizon.
func (w *Window) Advance(now time.Duration) {
	cutoff := now - w.horizon
	for w.head < len(w.events) && w.events[w.head].at < cutoff {
		e := w.events[w.head]
		w.counts[e.program]--
		if w.counts[e.program] == 0 {
			delete(w.counts, e.program)
		}
		w.head++
	}
	// Compact the backing array once the dead prefix dominates.
	if w.head > 1024 && w.head*2 > len(w.events) {
		n := copy(w.events, w.events[w.head:])
		w.events = w.events[:n]
		w.head = 0
	}
}

// Count returns the number of accesses to p within the horizon ending at
// now.
func (w *Window) Count(p trace.ProgramID, now time.Duration) int {
	w.Advance(now)
	return w.counts[p]
}

// Len returns the number of accesses currently inside the window.
func (w *Window) Len() int { return len(w.events) - w.head }

// Snapshot returns a copy of the current per-program counts as of now.
func (w *Window) Snapshot(now time.Duration) map[trace.ProgramID]int {
	w.Advance(now)
	out := make(map[trace.ProgramID]int, len(w.counts))
	for p, c := range w.counts {
		out[p] = c
	}
	return out
}
