package stats

import (
	"errors"
	"math"
	"math/rand"
)

// LogNormal is a lognormal distribution: if X ~ LogNormal(μ, σ) then
// ln(X) ~ N(μ, σ²). The paper observes (§5.2) that long-term healthy
// RTTs between a pair of RNICs follow a lognormal distribution, which
// the long-term detector fits at time T and then Z-tests against at
// T+0.5h, T+1h, ….
type LogNormal struct {
	Mu    float64 // mean of ln(X)
	Sigma float64 // standard deviation of ln(X)
}

// ErrBadSample reports that a lognormal fit or test was attempted on
// unusable data (too few points or non-positive values).
var ErrBadSample = errors.New("stats: sample unusable for lognormal estimation")

// FitLogNormal estimates μ and σ by maximum likelihood (mean and
// standard deviation of the logs). All samples must be positive; the
// fit needs at least two samples to estimate σ.
func FitLogNormal(xs []float64) (LogNormal, error) {
	if len(xs) < 2 {
		return LogNormal{}, ErrBadSample
	}
	logs := make([]float64, len(xs))
	for i, v := range xs {
		if v <= 0 {
			return LogNormal{}, ErrBadSample
		}
		logs[i] = math.Log(v)
	}
	mu := Mean(logs)
	// MLE uses the biased (1/n) variance; with window sizes in the
	// hundreds the distinction is immaterial, but we match MLE exactly.
	var sumsq float64
	for _, l := range logs {
		d := l - mu
		sumsq += d * d
	}
	sigma := math.Sqrt(sumsq / float64(len(logs)))
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws one value using the provided random source.
func (d LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// ZTest tests whether the sample xs is consistent with the fitted
// lognormal reference (§5.2, Fig. 14). It computes the Z statistic of
// the sample's log-mean against the reference N(μ, σ²/n) and returns
// the statistic together with the two-sided p-value. Samples must be
// positive and non-empty.
func (d LogNormal) ZTest(xs []float64) (z, p float64, err error) {
	if len(xs) == 0 || d.Sigma <= 0 {
		return 0, 0, ErrBadSample
	}
	var sum float64
	for _, v := range xs {
		if v <= 0 {
			return 0, 0, ErrBadSample
		}
		sum += math.Log(v)
	}
	n := float64(len(xs))
	sampleMu := sum / n
	z = (sampleMu - d.Mu) / (d.Sigma / math.Sqrt(n))
	p = 2 * normalSurvival(math.Abs(z))
	return z, p, nil
}

// normalSurvival returns P(Z > z) for a standard normal.
func normalSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
