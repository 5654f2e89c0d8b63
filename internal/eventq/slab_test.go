package eventq

import (
	"math/rand"
	"testing"
	"time"
)

// TestSlabFootprint runs days of plant-shaped schedules: sessions start
// through the day, each walking a chain of five-minute segment events
// and owning a session end scheduled up to three hours ahead. Every day
// repeats the one before and drains before midnight, so the slab must
// hold at most twice the most events pending at once, and nothing the
// queue keeps may grow with the days simulated.
func TestSlabFootprint(t *testing.T) {
	q := New()
	peak := 0
	var segment func(end time.Duration) Func
	segment = func(end time.Duration) Func {
		return func(now time.Duration) {
			if next := now + 5*time.Minute; next < end {
				q.Schedule(next, PrioritySegment, segment(end))
			}
		}
	}
	day := func(d int) {
		rng := rand.New(rand.NewSource(1)) // the same sessions every day
		base := time.Duration(d) * 24 * time.Hour
		for m := 60; m < 20*60; m++ {
			at := base + time.Duration(m)*time.Minute
			q.RunBefore(at, PrioritySessionStart)
			for range 5 + rng.Intn(m/20) {
				start := at + time.Duration(rng.Intn(60))*time.Second
				end := start + time.Duration(1+rng.Intn(180))*time.Minute
				q.Schedule(end, PrioritySessionEnd, Func(func(time.Duration) {}))
				q.Schedule(start, PrioritySegment, segment(end))
				peak = max(peak, q.Len())
			}
		}
		q.RunBefore(base+24*time.Hour, PriorityControl)
		if q.Len() != 0 {
			t.Fatalf("day %d left %d events pending", d, q.Len())
		}
	}
	day(0)
	slab, cur := cap(q.items), cap(q.cur)
	for d := 1; d < 4; d++ {
		day(d)
	}
	if peak < 1000 {
		t.Fatalf("at most %d events pending at once; the schedule is too thin to measure", peak)
	}
	if len(q.items) != peak || cap(q.items) > 2*peak {
		t.Errorf("slab of %d slots (capacity %d) for at most %d events pending at once", len(q.items), cap(q.items), peak)
	}
	if cap(q.items) != slab || cap(q.cur) != cur {
		t.Errorf("footprint grew from day 1 to day 4: slab %d -> %d, current minute %d -> %d",
			slab, cap(q.items), cur, cap(q.cur))
	}
}
