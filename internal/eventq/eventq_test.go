package eventq

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleAndRunOrder(t *testing.T) {
	q := New()
	var got []int
	q.Schedule(3*time.Second, PriorityControl, Func(func(time.Duration) { got = append(got, 3) }))
	q.Schedule(1*time.Second, PriorityControl, Func(func(time.Duration) { got = append(got, 1) }))
	q.Schedule(2*time.Second, PriorityControl, Func(func(time.Duration) { got = append(got, 2) }))
	q.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if q.Now() != 3*time.Second {
		t.Errorf("clock = %v, want 3s", q.Now())
	}
}

func TestSameTimePriorityOrder(t *testing.T) {
	q := New()
	var got []string
	at := time.Minute
	q.Schedule(at, PrioritySessionStart, Func(func(time.Duration) { got = append(got, "start") }))
	q.Schedule(at, PrioritySessionEnd, Func(func(time.Duration) { got = append(got, "end") }))
	q.Schedule(at, PriorityControl, Func(func(time.Duration) { got = append(got, "control") }))
	q.Schedule(at, PrioritySegment, Func(func(time.Duration) { got = append(got, "segment") }))
	q.Run()
	want := []string{"control", "end", "segment", "start"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("same-time order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeSamePriorityFIFO(t *testing.T) {
	q := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(time.Second, PrioritySegment, Func(func(time.Duration) { got = append(got, i) }))
	}
	q.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	q := New()
	q.Schedule(time.Minute, PriorityControl, Func(func(time.Duration) {}))
	q.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	q.Schedule(time.Second, PriorityControl, Func(func(time.Duration) {}))
}

// TestScheduleOutOfRangePanics: a priority the key cannot hold, or a
// time at or past TimeLimit, is a simulation bug like a past time —
// it panics and leaves the queue untouched rather than running in
// the wrong order.
func TestScheduleOutOfRangePanics(t *testing.T) {
	cases := []struct {
		name string
		at   time.Duration
		prio Priority
	}{
		{"priority -1", time.Second, -1},
		{"priority 8", time.Second, 8},
		{"priority 9", time.Second, 9},
		{"at limit", TimeLimit, PriorityControl},
		{"past limit", TimeLimit + time.Hour, PriorityControl},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := New()
			q.Schedule(time.Second, 2, Func(func(time.Duration) {}))
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Schedule(%v, %d) did not panic", tc.at, tc.prio)
					}
				}()
				q.Schedule(tc.at, tc.prio, Func(func(time.Duration) {}))
			}()
			if q.Len() != 1 {
				t.Fatalf("Len = %d after the rejected Schedule, want 1", q.Len())
			}
		})
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil event")
		}
	}()
	New().Schedule(0, PriorityControl, nil)
}

func TestEventsScheduledDuringRun(t *testing.T) {
	q := New()
	count := 0
	var recur func(now time.Duration)
	recur = func(now time.Duration) {
		count++
		if count < 100 {
			q.Schedule(now+time.Second, PrioritySegment, Func(recur))
		}
	}
	q.Schedule(0, PrioritySegment, Func(recur))
	q.Run()
	if count != 100 {
		t.Errorf("recursive chain ran %d times, want 100", count)
	}
	if q.Now() != 99*time.Second {
		t.Errorf("clock = %v, want 99s", q.Now())
	}
}

// Property: for any batch of (delay, priority) pairs, execution is sorted by
// (time, priority, insertion order).
func TestExecutionOrderProperty(t *testing.T) {
	type spec struct {
		Delay uint16
		Prio  uint8
	}
	f := func(specs []spec) bool {
		q := New()
		type key struct {
			at   time.Duration
			prio Priority
			seq  int
		}
		var order []key
		for i, s := range specs {
			i := i
			at := time.Duration(s.Delay) * time.Millisecond
			prio := Priority(s.Prio % 8)
			q.Schedule(at, prio, Func(func(now time.Duration) {
				order = append(order, key{at: now, prio: prio, seq: i})
			}))
		}
		q.Run()
		if len(order) != len(specs) {
			return false
		}
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			if a.at > b.at {
				return false
			}
			if a.at == b.at && a.prio > b.prio {
				return false
			}
			if a.at == b.at && a.prio == b.prio && a.seq > b.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunBefore(t *testing.T) {
	q := New()
	var got []string
	add := func(at time.Duration, prio Priority, name string) {
		q.Schedule(at, prio, Func(func(time.Duration) { got = append(got, name) }))
	}
	add(1*time.Second, PrioritySessionEnd, "end@1")
	add(2*time.Second, PrioritySessionEnd, "end@2")
	add(2*time.Second, PrioritySegment, "seg@2")
	add(2*time.Second, PrioritySessionStart, "start@2")
	add(3*time.Second, PrioritySessionEnd, "end@3")

	// Everything strictly before (2s, SessionStart) runs: end@1, end@2,
	// seg@2 — but not start@2 (same key) or end@3 (later).
	q.RunBefore(2*time.Second, PrioritySessionStart)
	want := []string{"end@1", "end@2", "seg@2"}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}
	if q.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", q.Now())
	}
	// A later boundary with no intervening events still advances the clock.
	q.RunBefore(2*time.Second, PrioritySessionStart) // idempotent
	if len(got) != 3 {
		t.Fatalf("re-run executed extra events: %v", got)
	}
	q.Run()
	if len(got) != 5 {
		t.Fatalf("drain executed %v", got)
	}
	if got[3] != "start@2" || got[4] != "end@3" {
		t.Fatalf("drain order %v", got)
	}
}

// TestRunBeforePastTimeLimit: every pending event sorts before a time
// at or past TimeLimit, including events they schedule, and the clock
// still lands on the requested time.
func TestRunBeforePastTimeLimit(t *testing.T) {
	q := New()
	ran := 0
	q.Schedule(time.Second, PrioritySessionStart, Func(func(now time.Duration) {
		ran++
		q.Schedule(TimeLimit-1, 7, Func(func(time.Duration) { ran++ }))
	}))
	q.Schedule(300*time.Hour, PrioritySegment, Func(func(time.Duration) { ran++ }))
	at := TimeLimit + time.Hour
	q.RunBefore(at, PriorityControl)
	if ran != 3 || q.Len() != 0 {
		t.Fatalf("ran %d events with %d pending, want 3 and 0", ran, q.Len())
	}
	if q.Now() != at {
		t.Fatalf("clock = %v, want %v", q.Now(), at)
	}
}

func TestRunBeforeAdvancesClockOnEmptyQueue(t *testing.T) {
	q := New()
	q.RunBefore(5*time.Second, PrioritySessionStart)
	if q.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", q.Now())
	}
}
