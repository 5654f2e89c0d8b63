package main

import "time"

// clock is the time source the open-loop generator runs on; tests
// substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopStats is what one open-loop run observed.
type openLoopStats struct {
	// latency is each request's time from when it was due to when its
	// response arrived, so a stall also charges the requests it delays.
	latency []time.Duration
	// late is how far behind its schedule the generator sent each request.
	late   []time.Duration
	failed int
}

func (s *openLoopStats) add(o openLoopStats) {
	s.latency = append(s.latency, o.latency...)
	s.late = append(s.late, o.late...)
	s.failed += o.failed
}

// stretch is a run of consecutive bodies: [start, start+open) go out
// open loop, [start+open, end) back to back.
type stretch struct{ start, open, end int }

// stretches cuts n bodies into up to windows stretches of near-equal
// length, each opening with its share of the open bodies, so the
// open-loop samples come from the whole trace rather than from its
// first hours, while the caches are still filling. Each stretch opens
// with the same number of bodies; a remainder of open that does not
// divide among the windows goes out back to back.
func stretches(n, open, windows int) []stretch {
	open = min(open, n)
	windows = min(windows, open)
	if windows == 0 {
		return []stretch{{0, 0, n}}
	}
	out := make([]stretch, windows)
	for w := range out {
		out[w] = stretch{start: w * n / windows, open: open / windows, end: (w + 1) * n / windows}
	}
	return out
}

// openLoop sends n requests from the calling goroutine on a fixed
// schedule, request i due at i*interval after the first. A request that
// comes due while the previous one is still in flight goes out as soon as
// it returns.
func openLoop(c clock, n int, interval time.Duration, send func(i int) error) openLoopStats {
	st := openLoopStats{latency: make([]time.Duration, 0, n), late: make([]time.Duration, 0, n)}
	t0 := c.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		st.late = append(st.late, c.Now().Sub(due))
		if send(i) != nil {
			st.failed++
		}
		st.latency = append(st.latency, c.Now().Sub(due))
	}
	return st
}
