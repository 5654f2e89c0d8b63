package metrics

import (
	"math"
	"testing"
	"time"

	"cablevod/internal/units"
)

func TestAddTransferSingleHour(t *testing.T) {
	m := NewRateMeter()
	m.AddTransfer(0, time.Hour, units.StreamRate)
	avg := m.HourOfDayAverage(1)
	if got := avg[0]; math.Abs(got.Mbps()-8.06) > 0.01 {
		t.Errorf("hour 0 avg = %v, want ~8.06 Mb/s", got)
	}
	for h := 1; h < 24; h++ {
		if avg[h] != 0 {
			t.Errorf("hour %d avg = %v, want 0", h, avg[h])
		}
	}
}

func TestAddTransferSplitsAcrossHours(t *testing.T) {
	m := NewRateMeter()
	m.AddTransfer(30*time.Minute, 90*time.Minute, units.StreamRate)
	avg := m.HourOfDayAverage(1)
	if avg[0] == 0 || avg[1] == 0 {
		t.Fatalf("transfer not split: %v %v", avg[0], avg[1])
	}
	if avg[0] != avg[1] {
		t.Errorf("unequal halves: %v vs %v", avg[0], avg[1])
	}
}

func TestHourOfDayAverageAcrossDays(t *testing.T) {
	m := NewRateMeter()
	// One full-hour stream at 19:00 on day 0 only; averaging over 2 days
	// halves it.
	m.AddTransfer(units.At(0, 19), units.At(0, 20), units.StreamRate)
	avg := m.HourOfDayAverage(2)
	if got := avg[19]; math.Abs(got.Mbps()-4.03) > 0.01 {
		t.Errorf("avg = %v, want ~4.03 Mb/s", got)
	}
}

func TestHourOfDayAverageIgnoresBeyondDays(t *testing.T) {
	m := NewRateMeter()
	m.AddTransfer(units.At(5, 10), units.At(5, 11), units.StreamRate)
	avg := m.HourOfDayAverage(2) // day 5 outside [0, 2)
	if avg[10] != 0 {
		t.Errorf("avg = %v, want 0", avg[10])
	}
}

func TestHourSamplesIncludeQuietHours(t *testing.T) {
	m := NewRateMeter()
	m.AddTransfer(units.At(0, 19), units.At(0, 20), units.StreamRate)
	samples := m.HourSamples(2, PeakHour)
	// 2 days x 4 peak hours = 8 samples.
	if len(samples) != 8 {
		t.Fatalf("samples = %d, want 8", len(samples))
	}
	nonZero := 0
	for _, s := range samples {
		if s > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Errorf("non-zero samples = %d, want 1", nonZero)
	}
}

func TestPeakStats(t *testing.T) {
	m := NewRateMeter()
	// Fill all 4 peak hours of one day with one stream.
	m.AddTransfer(units.At(0, 19), units.At(0, 23), units.StreamRate)
	st := m.PeakStats(1)
	if st.N != 4 {
		t.Fatalf("N = %d, want 4", st.N)
	}
	if math.Abs(st.Mean.Mbps()-8.06) > 0.01 {
		t.Errorf("mean = %v, want ~8.06 Mb/s", st.Mean)
	}
	if st.P05 != st.P95 {
		t.Errorf("uniform samples should have equal quantiles: %v vs %v", st.P05, st.P95)
	}
}

func TestPeakHourWindow(t *testing.T) {
	want := map[int]bool{18: false, 19: true, 22: true, 23: false}
	for h, exp := range want {
		if got := PeakHour(h); got != exp {
			t.Errorf("PeakHour(%d) = %v, want %v", h, got, exp)
		}
	}
}

func TestAddBits(t *testing.T) {
	m := NewRateMeter()
	m.AddBits(30*time.Minute, 3600)
	samples := m.HourSamples(1, func(h int) bool { return h == 0 })
	if len(samples) != 1 || samples[0] != 1 {
		t.Errorf("samples = %v, want [1 b/s]", samples)
	}
	if m.TotalBits() != 3600 {
		t.Errorf("TotalBits = %d", m.TotalBits())
	}
}

func TestAddTransferInvertedPanics(t *testing.T) {
	m := NewRateMeter()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AddTransfer(time.Hour, 0, units.StreamRate)
}

func TestNewRateStatsEmpty(t *testing.T) {
	st := NewRateStats(nil)
	if st.N != 0 || st.Mean != 0 || st.Max != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestRateStatsQuantiles(t *testing.T) {
	samples := make([]units.BitRate, 100)
	for i := range samples {
		samples[i] = units.BitRate(i + 1) // 1..100
	}
	st := NewRateStats(samples)
	if st.P05 != 5 || st.P50 != 50 || st.P95 != 95 || st.Max != 100 {
		t.Errorf("quantiles = %+v", st)
	}
	if math.Abs(float64(st.Mean)-50.5) > 1 {
		t.Errorf("mean = %v, want ~50.5", st.Mean)
	}
}

func TestQuantileFloat(t *testing.T) {
	vals := []float64{9, 1, 5}
	if got := Quantile(vals, 0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := Quantile(vals, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(vals, 1); got != 9 {
		t.Errorf("q1 = %v, want 9", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Input must not be reordered.
	if vals[0] != 9 || vals[1] != 1 || vals[2] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestRestoreBucketsBounds(t *testing.T) {
	m := NewRateMeter()
	if err := m.RestoreBuckets(map[int64]int64{0: 8, 3: 0, 5: 16}, 5); err != nil {
		t.Fatal(err)
	}
	if m.at(0) != 8 || m.at(5) != 16 || m.TotalBits() != 24 {
		t.Fatalf("restored buckets %v", m.Buckets())
	}
	for name, buckets := range map[string]map[int64]int64{
		"hour past the bound": {6: 8},
		"hour 2^40":           {1 << 40: 8},
		"negative hour":       {-1: 8},
		"negative bits":       {2: -8},
	} {
		m := NewRateMeter()
		if err := m.RestoreBuckets(buckets, 5); err == nil {
			t.Errorf("%s: restore accepted %v", name, buckets)
		}
		if len(m.bits) != 0 {
			t.Errorf("%s: failed restore left %d buckets", name, len(m.bits))
		}
	}
}
