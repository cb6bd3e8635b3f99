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

// LogMoments is the sufficient statistic of a lognormal sample, folded
// one value at a time: the count, Σ ln x summed in arrival order (so
// the fitted μ is bit-equal to the mean of the logs), and Welford's
// running Σ (ln x − mean)². Welford runs on the logs shifted by the
// first one, so its running mean sits at the scale of σ rather than μ
// and stays exact enough when σ is tiny beside ln x. Fitting and
// Z-testing need nothing else, so a streaming window holds 48 bytes
// however many samples it sees. The zero value is an empty sample.
type LogMoments struct {
	n     int
	sum   float64 // Σ ln x, in arrival order
	shift float64 // ln of the first value
	mean  float64 // running mean of ln x − shift
	m2    float64 // Σ (ln x − mean)²
	bad   bool    // a non-positive (or NaN) value was added
}

// Add folds x into the moments. A value that is not positive marks the
// sample unusable: Fit and ZTestMoments then report ErrBadSample.
func (m *LogMoments) Add(x float64) {
	m.n++
	if m.bad {
		return
	}
	if !(x > 0) {
		m.bad = true
		return
	}
	l := math.Log(x)
	if m.n == 1 {
		m.sum, m.shift = l, l
		return
	}
	m.sum += l
	d := l - m.shift
	delta := d - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (d - m.mean)
}

// Len returns the number of values added, usable or not.
func (m LogMoments) Len() int { return m.n }

// Fit estimates μ and σ by maximum likelihood: the mean and the biased
// (1/n) standard deviation of the logs. It needs two usable values.
func (m LogMoments) Fit() (LogNormal, error) {
	if m.n < 2 || m.bad {
		return LogNormal{}, ErrBadSample
	}
	n := float64(m.n)
	return LogNormal{Mu: m.sum / n, Sigma: math.Sqrt(m.m2 / n)}, nil
}

// FitLogNormal estimates μ and σ by maximum likelihood (mean and
// standard deviation of the logs), folding xs into LogMoments. All
// samples must be positive; the fit needs at least two samples to
// estimate σ.
func FitLogNormal(xs []float64) (LogNormal, error) {
	return momentsOf(xs).Fit()
}

// momentsOf folds xs into LogMoments in order.
func momentsOf(xs []float64) LogMoments {
	var m LogMoments
	for _, v := range xs {
		m.Add(v)
	}
	return m
}

// Sample draws one value using the provided random source.
func (d LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// ZTestMoments tests whether the sample summarized by m is consistent
// with the fitted lognormal reference (§5.2, Fig. 14). It computes the
// Z statistic of the sample's log-mean against the reference
// N(μ, σ²/n) and returns the statistic together with the two-sided
// p-value. The sample must be non-empty and positive.
func (d LogNormal) ZTestMoments(m LogMoments) (z, p float64, err error) {
	if m.n == 0 || m.bad || d.Sigma <= 0 {
		return 0, 0, ErrBadSample
	}
	n := float64(m.n)
	sampleMu := m.sum / n
	z = (sampleMu - d.Mu) / (d.Sigma / math.Sqrt(n))
	p = 2 * normalSurvival(math.Abs(z))
	return z, p, nil
}

// ZTest is ZTestMoments over the sample xs.
func (d LogNormal) ZTest(xs []float64) (z, p float64, err error) {
	return d.ZTestMoments(momentsOf(xs))
}

// normalSurvival returns P(Z > z) for a standard normal.
func normalSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
