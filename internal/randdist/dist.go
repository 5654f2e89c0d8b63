package randdist

import (
	"fmt"
	"math"
)

// Lognormal is a lognormal distribution parameterized by the mean (Mu) and
// standard deviation (Sigma) of the underlying normal.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a lognormal variate.
func (d *Lognormal) Sample(r *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// Mean returns the distribution mean exp(mu + sigma^2/2).
func (d *Lognormal) Mean() float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}

// TruncExp is an exponential distribution with the given Mean, truncated to
// [0, Max] by resampling-free inversion of the truncated CDF.
type TruncExp struct {
	Mean float64
	Max  float64
}

// Sample draws a truncated exponential variate in [0, Max].
func (d *TruncExp) Sample(r *RNG) float64 {
	if d.Mean <= 0 || d.Max <= 0 {
		panic(fmt.Sprintf("randdist: TruncExp requires positive Mean and Max, got %+v", d))
	}
	lambda := 1 / d.Mean
	// Inverse CDF of exponential truncated at Max:
	// F(x) = (1 - exp(-lx)) / (1 - exp(-lMax))
	u := r.Float64()
	z := 1 - u*(1-math.Exp(-lambda*d.Max))
	return -math.Log(z) / lambda
}
