// Package stats implements the statistical primitives SkeletonHunter's
// analyzer relies on: percentiles over latency windows (§5.2),
// lognormal parameter estimation and Z-testing for long-term anomaly
// detection (Fig. 14), and the local outlier factor (LOF) used for
// short-term anomaly detection.
//
// Everything operates on plain float64 slices, or on LogMoments, a
// fixed-size fold of a sample, so the analyzer can stream window
// aggregates through without allocation-heavy abstractions.
package stats

import "math"

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted (ascending)
// data using linear interpolation between closest ranks. The input must
// already be sorted.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// EuclideanDistance returns the L2 distance between equal-length vectors.
// It panics on length mismatch: feature vectors in this codebase have a
// fixed, known dimensionality and a mismatch is a programming error.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: dimension mismatch")
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
