package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile returns the empirical q-quantile of sorted via the
// nearest-rank-with-interpolation definition the digest approximates.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// rankOf returns the fraction of sorted samples <= v — the rank-space
// position of an estimate, which is the error metric t-digests bound.
func rankOf(sorted []float64, v float64) float64 {
	return float64(sort.SearchFloat64s(sorted, v)) / float64(len(sorted))
}

// sampleSets builds the three reference distributions from the issue:
// uniform, zipf (heavy right tail), and bimodal (fast hits + slow
// misses, the shape the latency model actually produces).
func sampleSets(n int) map[string][]float64 {
	sets := make(map[string][]float64)

	rng := rand.New(rand.NewSource(7))
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64()
	}
	sets["uniform"] = uniform

	zrng := rand.New(rand.NewSource(11))
	z := rand.NewZipf(zrng, 1.3, 1, 1<<20)
	zipf := make([]float64, n)
	for i := range zipf {
		zipf[i] = float64(z.Uint64()) + zrng.Float64() // de-duplicate the atoms
	}
	sets["zipf"] = zipf

	brng := rand.New(rand.NewSource(13))
	bimodal := make([]float64, n)
	for i := range bimodal {
		if brng.Float64() < 0.8 {
			bimodal[i] = 0.005 + 0.001*brng.NormFloat64() // "hit" mode
		} else {
			bimodal[i] = 0.120 + 0.020*brng.NormFloat64() // "miss" mode
		}
	}
	sets["bimodal"] = bimodal

	return sets
}

// TestTDigestQuantileAccuracy checks the digest against exact sorted
// quantiles on all three distributions: rank error under 1% everywhere,
// under 0.5% at the tails (the arcsine scale function's strong zone).
func TestTDigestQuantileAccuracy(t *testing.T) {
	const n = 50_000
	quantiles := []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

	for name, samples := range sampleSets(n) {
		t.Run(name, func(t *testing.T) {
			td := NewTDigest(DefaultCompression)
			for _, v := range samples {
				td.Add(v)
			}
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)

			if td.Count() != n {
				t.Fatalf("Count() = %d, want %d", td.Count(), n)
			}
			var sum float64
			for _, v := range samples {
				sum += v
			}
			if math.Abs(td.Sum()-sum) > 1e-6*math.Abs(sum) {
				t.Errorf("Sum() = %g, want %g", td.Sum(), sum)
			}

			for _, q := range quantiles {
				got := td.Quantile(q)
				rank := rankOf(sorted, got)
				tol := 0.01
				if q <= 0.05 || q >= 0.95 {
					tol = 0.005
				}
				if math.Abs(rank-q) > tol {
					t.Errorf("q=%v: estimate %g sits at rank %.4f (exact value %g), rank error %.4f > %v",
						q, got, rank, exactQuantile(sorted, q), math.Abs(rank-q), tol)
				}
			}

			if got := td.Quantile(0); got != sorted[0] {
				t.Errorf("Quantile(0) = %g, want min %g", got, sorted[0])
			}
			if got := td.Quantile(1); got != sorted[n-1] {
				t.Errorf("Quantile(1) = %g, want max %g", got, sorted[n-1])
			}
			if c := td.Centroids(); c > int(2*DefaultCompression)+8 {
				t.Errorf("Centroids() = %d, want <= %d", c, int(2*DefaultCompression)+8)
			}
		})
	}
}

// TestTDigestMergeAssociativity is the satellite property test: the
// same stream sharded into parts and merged in different groupings must
// agree — with each other and with the unsharded digest — within the
// sketch's rank error. This is the property the Collector relies on
// when it merges per-neighborhood digests at scrape time.
func TestTDigestMergeAssociativity(t *testing.T) {
	const n = 40_000
	const parts = 8
	quantiles := []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99}

	for name, samples := range sampleSets(n) {
		t.Run(name, func(t *testing.T) {
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)

			shards := make([]*TDigest, parts)
			for i := range shards {
				shards[i] = NewTDigest(DefaultCompression)
			}
			for i, v := range samples {
				shards[i%parts].Add(v)
			}

			// Grouping A: left fold 0..7.
			left := NewTDigest(DefaultCompression)
			for _, sh := range shards {
				left.Merge(sh)
			}
			// Grouping B: pairwise tree ((0+1)+(2+3)) + ((4+5)+(6+7)).
			tree := func(lo, hi int) *TDigest {
				out := NewTDigest(DefaultCompression)
				for i := lo; i < hi; i++ {
					out.Merge(shards[i])
				}
				return out
			}
			balanced := NewTDigest(DefaultCompression)
			balanced.Merge(tree(0, parts/2))
			balanced.Merge(tree(parts/2, parts))

			for _, d := range []*TDigest{left, balanced} {
				if d.Count() != n {
					t.Fatalf("merged Count() = %d, want %d", d.Count(), n)
				}
			}
			if math.Abs(left.Sum()-balanced.Sum()) > 1e-6*math.Abs(left.Sum()) {
				t.Errorf("merged sums differ: %g vs %g", left.Sum(), balanced.Sum())
			}

			for _, q := range quantiles {
				lr := rankOf(sorted, left.Quantile(q))
				br := rankOf(sorted, balanced.Quantile(q))
				if math.Abs(lr-q) > 0.02 {
					t.Errorf("q=%v: left-fold merge rank error %.4f > 0.02", q, math.Abs(lr-q))
				}
				if math.Abs(br-q) > 0.02 {
					t.Errorf("q=%v: balanced merge rank error %.4f > 0.02", q, math.Abs(br-q))
				}
				if math.Abs(lr-br) > 0.02 {
					t.Errorf("q=%v: groupings disagree in rank space by %.4f", q, math.Abs(lr-br))
				}
			}

			// Merge must leave the sources untouched.
			if shards[0].Count() != uint64(n/parts) {
				t.Errorf("source digest mutated by merge: count %d", shards[0].Count())
			}
		})
	}
}

// TestTDigestDeterminism: identical streams produce identical digests —
// part of the repo's reproducibility contract.
func TestTDigestDeterminism(t *testing.T) {
	samples := sampleSets(10_000)["zipf"]
	a, b := NewTDigest(DefaultCompression), NewTDigest(DefaultCompression)
	for _, v := range samples {
		a.Add(v)
		b.Add(v)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v: %g != %g on identical streams", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestTDigestEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		td := NewTDigest(0)
		if got := td.Quantile(0.5); got != 0 {
			t.Errorf("empty Quantile = %g, want 0", got)
		}
		if td.Count() != 0 || td.Sum() != 0 || td.Centroids() != 0 {
			t.Error("empty digest reports non-zero state")
		}
		td.Merge(nil) // must not panic
		td.Merge(NewTDigest(0))
	})

	t.Run("single", func(t *testing.T) {
		td := NewTDigest(0)
		td.Add(42)
		for _, q := range []float64{0, 0.5, 1} {
			if got := td.Quantile(q); got != 42 {
				t.Errorf("Quantile(%v) = %g, want 42", q, got)
			}
		}
	})

	t.Run("constant", func(t *testing.T) {
		td := NewTDigest(0)
		for i := 0; i < 5000; i++ {
			td.Add(7)
		}
		if got := td.Quantile(0.99); got != 7 {
			t.Errorf("constant-stream Quantile(0.99) = %g, want 7", got)
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Add(%v) did not panic", bad)
					}
				}()
				NewTDigest(0).Add(bad)
			}()
		}
	})

	t.Run("clamped to observed range", func(t *testing.T) {
		td := NewTDigest(10) // tiny compression forces wide centroids
		rng := rand.New(rand.NewSource(3))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 10_000; i++ {
			v := rng.ExpFloat64()
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			td.Add(v)
		}
		for q := 0.0; q <= 1.0; q += 0.01 {
			if got := td.Quantile(q); got < lo || got > hi {
				t.Fatalf("Quantile(%v) = %g outside observed [%g, %g]", q, got, lo, hi)
			}
		}
	})
}

// TestTDigestMonotone: quantile estimates must be non-decreasing in q.
func TestTDigestMonotone(t *testing.T) {
	for name, samples := range sampleSets(20_000) {
		t.Run(name, func(t *testing.T) {
			td := NewTDigest(DefaultCompression)
			for _, v := range samples {
				td.Add(v)
			}
			prev := math.Inf(-1)
			for q := 0.0; q <= 1.0; q += 0.001 {
				got := td.Quantile(q)
				if got < prev {
					t.Fatalf("Quantile(%v) = %g < previous %g", q, got, prev)
				}
				prev = got
			}
		})
	}
}

// TestTDigestAddN: a weighted point records its multiplicity. Count,
// sum and extremes match adding each observation one by one; quantiles
// of a stream folded as (value, count) tallies track the unit-point
// digest of the same stream within the sketch's error.
func TestTDigestAddN(t *testing.T) {
	weighted, unit := NewTDigest(0), NewTDigest(0)
	weighted.AddN(7, 0) // records nothing
	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 200; batch++ {
		// A batch of 500 samples over a few dozen discrete latencies,
		// folded as a tally the way the collector folds a flush.
		tally := map[float64]uint64{}
		for i := 0; i < 500; i++ {
			x := 0.005 / (1 - float64(rng.Intn(40))/50)
			unit.Add(x)
			tally[x]++
		}
		xs := make([]float64, 0, len(tally))
		for x := range tally {
			xs = append(xs, x)
		}
		sort.Float64s(xs)
		for _, x := range xs {
			weighted.AddN(x, tally[x])
		}
	}
	if weighted.Count() != unit.Count() || weighted.Quantile(0) != unit.Quantile(0) || weighted.Quantile(1) != unit.Quantile(1) {
		t.Errorf("weighted count/min/max %d/%g/%g, unit %d/%g/%g",
			weighted.Count(), weighted.Quantile(0), weighted.Quantile(1), unit.Count(), unit.Quantile(0), unit.Quantile(1))
	}
	if rel := math.Abs(weighted.Sum()/unit.Sum() - 1); rel > 1e-9 {
		t.Errorf("weighted sum %g, unit sum %g", weighted.Sum(), unit.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		w, u := weighted.Quantile(q), unit.Quantile(q)
		if rel := math.Abs(w/u - 1); rel > 0.02 {
			t.Errorf("q%.2f: weighted %g, unit %g (%.1f%% apart)", q, w, u, 100*rel)
		}
	}
}
