package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.95, 3.85}, {1, 4},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no values = %v, want NaN", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the definition the benchmark contract's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1.5, 9.25, 2, 7.5, 3, 4}, [3]float64{2, 4, 7.5}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestAccept checks the acceptance check's two tests and their
// directions on two-value inputs, where the spread is
// 1.5 × (max − min) / median.
func TestAccept(t *testing.T) {
	for _, c := range []struct {
		name          string
		vals          []float64
		setup, higher bool
		sp, worse     float64
		ok            bool
	}{
		{"steady", []float64{100, 102}, false, false, 0.0297, 0.02, true},
		{"wide", []float64{100, 120}, false, false, 0.2727, 0.2, false},
		{"set-up spread not checked", []float64{100, 120}, true, false, 0.2727, 0.2, true},
		{"set-up got worse", []float64{100, 130}, true, false, 0.3913, 0.3, false},
		{"set-up got faster", []float64{130, 100}, true, false, 0.3913, -0.2308, true},
		{"rate rose", []float64{100, 110}, false, true, 0.1429, -0.1, true},
		{"rate fell", []float64{110, 100}, false, true, 0.1429, 0.0909, true},
		{"rate fell past the bound", []float64{100, 74}, false, true, 0.4483, 0.26, false},
	} {
		sp, worse, ok := accept(c.vals, c.setup, c.higher, 0.25)
		if math.Abs(sp-c.sp) > 1e-4 || math.Abs(worse-c.worse) > 1e-4 || ok != c.ok {
			t.Errorf("%s: accept(%v) = %.4f, %.4f, %t; want %.4f, %.4f, %t", c.name, c.vals, sp, worse, ok, c.sp, c.worse, c.ok)
		}
	}
}
