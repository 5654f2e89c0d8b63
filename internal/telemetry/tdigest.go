package telemetry

import (
	"fmt"
	"math"
	"slices"
)

// TDigest is a mergeable quantile sketch (Dunning's merging t-digest
// with the arcsine scale function): it summarizes an unbounded stream
// of observations in O(compression) centroids, with relative accuracy
// concentrated at the tails — exactly what p95/p99 latency reporting
// needs. Digests built over disjoint parts of a stream Merge into one
// digest whose quantiles approximate the digest of the combined stream
// (the property that lets per-neighborhood digests aggregate into one
// system-wide latency summary at scrape time).
//
// The implementation is fully deterministic: Add buffers points and
// compresses by sorting (stable) and greedily merging neighbors under
// the scale-function weight limit, so the same observations in the
// same order always produce the same centroids. A TDigest is not safe
// for concurrent use; callers guard it (the Collector keeps one per
// neighborhood under a mutex only a scrape ever contends).
type TDigest struct {
	compression float64

	// Processed centroids, sorted by mean.
	means   []float64
	weights []float64

	// Unprocessed points, compressed in batches.
	buf []weightedPoint

	// Compression scratch, reused across compress calls so the steady
	// state allocates nothing on the hot path.
	scratchM []float64
	scratchW []float64

	count    uint64
	sum      float64
	min, max float64
}

// DefaultCompression trades ~1 KB of centroids for sub-percent rank
// error at the tails — the standard operating point.
const DefaultCompression = 100

// NewTDigest returns an empty digest. Compression bounds the number of
// retained centroids (roughly 2x compression); higher is more accurate
// and bigger. Non-positive uses DefaultCompression.
func NewTDigest(compression float64) *TDigest {
	if compression <= 0 {
		compression = DefaultCompression
	}
	return &TDigest{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// weightedPoint is a buffered observation value with its multiplicity.
type weightedPoint struct{ mean, weight float64 }

// Add records one observation. NaN and infinite values are rejected
// with a panic: they would poison every quantile silently.
func (t *TDigest) Add(x float64) { t.AddN(x, 1) }

// AddN records n observations of the same value x as one weighted
// point (n = 0 records nothing). Folding a tally of repeated values
// costs one buffered point per distinct value instead of one per
// observation.
func (t *TDigest) AddN(x float64, n uint64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("telemetry: non-finite t-digest observation %v", x))
	}
	if n == 0 {
		return
	}
	w := float64(n)
	t.count += n
	t.sum += x * w
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if t.buf == nil {
		t.buf = make([]weightedPoint, 0, int(8*t.compression))
	}
	t.buf = append(t.buf, weightedPoint{mean: x, weight: w})
	if len(t.buf) >= int(8*t.compression) {
		t.compress()
	}
}

// Count returns the number of observations recorded.
func (t *TDigest) Count() uint64 { return t.count }

// Sum returns the sum of all observations (for Prometheus summary
// _sum lines).
func (t *TDigest) Sum() float64 { return t.sum }

// Merge folds every centroid of other into t, leaving other untouched.
// Merging is associative and commutative up to the sketch's accuracy:
// shard digests merged in any grouping agree on quantiles within the
// digest's rank error (pinned by TestTDigestMergeAssociativity).
func (t *TDigest) Merge(other *TDigest) {
	if other == nil || other.count == 0 {
		return
	}
	other.compress()
	t.count += other.count
	t.sum += other.sum
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
	// Fold the centroids in as weighted points: merge the two
	// mean-sorted centroid lists and recompress.
	t.compress()
	means := make([]float64, 0, len(t.means)+len(other.means))
	weights := make([]float64, 0, cap(means))
	i, j := 0, 0
	for i < len(t.means) || j < len(other.means) {
		if j >= len(other.means) || (i < len(t.means) && t.means[i] <= other.means[j]) {
			means = append(means, t.means[i])
			weights = append(weights, t.weights[i])
			i++
		} else {
			means = append(means, other.means[j])
			weights = append(weights, other.weights[j])
			j++
		}
	}
	t.means, t.weights = t.means[:0], t.weights[:0]
	t.mergeWeighted(means, weights)
}

// compress folds the buffered points into the centroid set. All
// intermediate storage is reused across calls: in steady state a
// compress allocates nothing.
func (t *TDigest) compress() {
	if len(t.buf) == 0 {
		return
	}
	// Equal values order by weight, so the merge input is a total
	// order whatever the insertion order within a batch (values are
	// finite, so plain comparisons order them).
	slices.SortFunc(t.buf, func(a, b weightedPoint) int {
		switch {
		case a.mean != b.mean:
			if a.mean < b.mean {
				return -1
			}
			return 1
		case a.weight < b.weight:
			return -1
		case a.weight > b.weight:
			return 1
		}
		return 0
	})
	n := len(t.means) + len(t.buf)
	if cap(t.scratchM) < n {
		// Headroom beyond n: the centroid count creeps up between
		// compressions, and growing exactly to n would reallocate (and
		// zero) the scratch on almost every call.
		t.scratchM = make([]float64, 0, n+n/4)
		t.scratchW = make([]float64, 0, n+n/4)
	}
	sm, sw := t.scratchM[:0], t.scratchW[:0]
	// Merge the two sorted sequences: processed centroids and buffer.
	i, j := 0, 0
	for i < len(t.means) || j < len(t.buf) {
		if j >= len(t.buf) || (i < len(t.means) && t.means[i] <= t.buf[j].mean) {
			sm = append(sm, t.means[i])
			sw = append(sw, t.weights[i])
			i++
		} else {
			sm = append(sm, t.buf[j].mean)
			sw = append(sw, t.buf[j].weight)
			j++
		}
	}
	t.scratchM, t.scratchW = sm, sw
	t.buf = t.buf[:0]
	t.means, t.weights = t.means[:0], t.weights[:0]
	t.mergeWeighted(sm, sw)
}

// mergeWeighted rebuilds the centroid set from weighted points already
// sorted by mean, greedily merging neighbors while the scale function
// allows (k(q_right) - k(q_left) <= 1). The input slices must not
// alias t.means/t.weights, which must be empty (retaining capacity) on
// entry — output is appended onto them in place.
func (t *TDigest) mergeWeighted(means, weights []float64) {
	if len(means) == 0 {
		return
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	outMeans, outWeights := t.means, t.weights

	// The merge condition k(q_right) - k(q_left) <= 1 is evaluated in
	// weight space: each time a centroid closes, precompute the weight
	// bound w <= total * kInv(k(q_left) + 1) once, so the per-point
	// test is a single comparison instead of an asin (the reference
	// merging-digest trick; k is monotone, so the forms are
	// equivalent).
	curMean, curWeight := means[0], weights[0]
	var wSoFar float64
	wLimit := total * t.kInv(t.k(0)+1)
	for i := 1; i < len(means); i++ {
		proposed := curWeight + weights[i]
		if wSoFar+proposed <= wLimit {
			// Merge into the current centroid (weighted mean).
			curMean += weights[i] / proposed * (means[i] - curMean)
			curWeight = proposed
			continue
		}
		outMeans = append(outMeans, curMean)
		outWeights = append(outWeights, curWeight)
		wSoFar += curWeight
		wLimit = total * t.kInv(t.k(wSoFar/total)+1)
		curMean, curWeight = means[i], weights[i]
	}
	t.means = append(outMeans, curMean)
	t.weights = append(outWeights, curWeight)
}

// kInv is the inverse scale function: the quantile whose k-value is k,
// clamped to [0, 1] outside the scale's range.
func (t *TDigest) kInv(k float64) float64 {
	if k >= t.compression/4 {
		return 1
	}
	if k <= -t.compression/4 {
		return 0
	}
	return (math.Sin(2*math.Pi*k/t.compression) + 1) / 2
}

// k is the arcsine scale function: steep at q=0 and q=1, so tail
// centroids stay tiny and tail quantiles stay accurate.
func (t *TDigest) k(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return t.compression * math.Asin(2*q-1) / (2 * math.Pi)
}

// Quantile estimates the q-quantile of the observed stream (q clamped
// to [0, 1]). An empty digest reports 0.
func (t *TDigest) Quantile(q float64) float64 {
	if t.count == 0 {
		return 0
	}
	t.compress()
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	var total float64
	for _, w := range t.weights {
		total += w
	}
	target := q * total

	// Centroid i's mass is centered at cum_i + w_i/2; interpolate
	// linearly between successive centers, clamped to [min, max].
	var cum float64
	prevCenter, prevMean := 0.0, t.min
	for i, w := range t.weights {
		center := cum + w/2
		if target < center {
			if center == prevCenter {
				return t.means[i]
			}
			frac := (target - prevCenter) / (center - prevCenter)
			return clamp(prevMean+frac*(t.means[i]-prevMean), t.min, t.max)
		}
		prevCenter, prevMean = center, t.means[i]
		cum += w
	}
	// Past the last center: interpolate toward max.
	if total == prevCenter {
		return t.max
	}
	frac := (target - prevCenter) / (total - prevCenter)
	return clamp(prevMean+frac*(t.max-prevMean), t.min, t.max)
}

// Centroids returns the current number of retained centroids (after
// compressing pending points) — a size diagnostic, not a data API.
func (t *TDigest) Centroids() int {
	t.compress()
	return len(t.means)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
