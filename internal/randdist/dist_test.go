package randdist

import (
	"math"
	"sort"
	"testing"
)

func TestLognormalMoments(t *testing.T) {
	d := &Lognormal{Mu: 1.2, Sigma: 0.8}
	r := NewRNG(5, 5)
	const n = 300_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	got := sum / n
	want := d.Mean()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("sample mean = %v, want ~%v", got, want)
	}
}

func TestTruncExpBounded(t *testing.T) {
	d := &TruncExp{Mean: 10, Max: 25}
	r := NewRNG(6, 6)
	for i := 0; i < 100_000; i++ {
		v := d.Sample(r)
		if v < 0 || v > 25 {
			t.Fatalf("sample %v out of [0, 25]", v)
		}
	}
}

func TestTruncExpSkew(t *testing.T) {
	// Median of a truncated exponential is well below the midpoint.
	d := &TruncExp{Mean: 8, Max: 100}
	r := NewRNG(7, 7)
	const n = 100_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = d.Sample(r)
	}
	sort.Float64s(vals)
	median := vals[n/2]
	// Median of Exp(mean 8) is 8*ln2 = 5.55; truncation barely moves it.
	if median < 4.5 || median > 6.5 {
		t.Errorf("median = %v, want ~5.5", median)
	}
}

func TestTruncExpPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&TruncExp{Mean: 0, Max: 10}).Sample(NewRNG(1, 1))
}
