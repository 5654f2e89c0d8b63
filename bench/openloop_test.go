package main

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a request takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDue(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	ms := time.Millisecond
	service := []time.Duration{5 * ms, 25 * ms, 5 * ms, 5 * ms}
	st := openLoop(c, len(service), 10*ms, func(i int) error {
		c.now = c.now.Add(service[i])
		if i == 2 {
			return errors.New("refused")
		}
		return nil
	})
	// Request 1 overruns its slot, so 2 and 3 go out late and their
	// latency counts the wait from their due times.
	if want := []time.Duration{0, 0, 15 * ms, 10 * ms}; !slices.Equal(st.late, want) {
		t.Errorf("late = %v, want %v", st.late, want)
	}
	if want := []time.Duration{5 * ms, 25 * ms, 20 * ms, 15 * ms}; !slices.Equal(st.latency, want) {
		t.Errorf("latency = %v, want %v", st.latency, want)
	}
	if st.failed != 1 {
		t.Errorf("failed = %d, want 1", st.failed)
	}
}

func TestStretchesSpreadOpenBodies(t *testing.T) {
	for _, c := range []struct {
		n, open, windows int
		want             []stretch
	}{
		{n: 10, open: 0, windows: 4, want: []stretch{{0, 0, 10}}},
		{n: 10, open: 2, windows: 4, want: []stretch{{0, 1, 5}, {5, 1, 10}}},
		{n: 10, open: 7, windows: 3, want: []stretch{{0, 2, 3}, {3, 2, 6}, {6, 2, 10}}},
		{n: 3, open: 5, windows: 4, want: []stretch{{0, 1, 1}, {1, 1, 2}, {2, 1, 3}}},
	} {
		if got := stretches(c.n, c.open, c.windows); !slices.Equal(got, c.want) {
			t.Errorf("stretches(%d, %d, %d) = %v, want %v", c.n, c.open, c.windows, got, c.want)
		}
	}
	// The daemon-ingest pass: 591 bodies, 100 open loop in 10 stretches
	// that tile the trace.
	got := stretches(591, 100, openWindows)
	next, open := 0, 0
	for _, s := range got {
		if s.start != next || s.open != 10 || s.end-s.start < 59 {
			t.Fatalf("stretch %+v after body %d", s, next)
		}
		next, open = s.end, open+s.open
	}
	if next != 591 || open != 100 {
		t.Errorf("stretches cover %d bodies with %d open, want 591 and 100", next, open)
	}
}
