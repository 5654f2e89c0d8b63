package popularity

import (
	"testing"
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

func TestIntroductionDecay(t *testing.T) {
	tr := trace.New()
	// Program 1 introduced at day 1, heavily watched on day 1, less later:
	// 12 hours of total viewing on relative day 0, 6 on day 1, 3 on day 2.
	add := func(start, dur time.Duration) {
		tr.Append(trace.Record{User: 1, Program: 1, Start: start, Duration: dur})
	}
	intro := units.At(1, 0)
	add(intro, 12*time.Hour)
	add(intro+units.Day, 6*time.Hour)
	add(intro+2*units.Day, 3*time.Hour)
	// Pad the trace span past relative day 2 so all days count.
	tr.Append(trace.Record{User: 2, Program: 2, Start: units.At(5, 0), Duration: time.Hour})
	tr.Sort()

	got := IntroductionDecay(tr, 1, 3, 0)
	want := []float64{0.5, 0.25, 0.125}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("day %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIntroductionDecayExcludesTruncatedDays(t *testing.T) {
	tr := trace.New()
	// Introduced half a day before trace end: day 0 incomplete.
	tr.Append(trace.Record{User: 1, Program: 1, Start: 0, Duration: 12 * time.Hour})
	tr.Sort()
	got := IntroductionDecay(tr, 1, 2, 0)
	for d, v := range got {
		if v != 0 {
			t.Errorf("day %d = %v, want 0 (no complete aligned days)", d, v)
		}
	}
}

func TestIntroductionDecayEmpty(t *testing.T) {
	if got := IntroductionDecay(trace.New(), 5, 0, 0); got != nil {
		t.Error("expected nil for zero days")
	}
	got := IntroductionDecay(trace.New(), 5, 3, 0)
	for _, v := range got {
		if v != 0 {
			t.Error("expected zeros for empty trace")
		}
	}
}
