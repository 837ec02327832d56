// Package stats provides the small statistical helpers shared by the
// metrics collector and the experiment harness: means, the sample standard
// deviation, and normal-theory confidence intervals across repetitions.
// The collector's Eq. 4 σ uses the sample form (divide by N−1): the
// paper prints /N, but its own Table I only reproduces with N−1.
package stats

import "math"

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDevPop returns the population standard deviation (divide by N), the
// form Eq. 4 prints; the collector uses StdDevSample (see above).
func StdDevPop(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// StdDevSample returns the sample standard deviation (divide by N-1); used
// for Eq. 4's σ and for confidence intervals across repetitions.
func StdDevSample(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// CI95 returns the half-width of a 95% normal-theory confidence interval
// for the mean of xs.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDevSample(xs) / math.Sqrt(float64(len(xs)))
}

// MinMax returns the extrema (0,0 for an empty slice).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
