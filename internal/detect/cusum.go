package detect

import "math"

// CUSUM is a one-sided cumulative-sum change detector over log-RTT, the
// classical sequential-analysis technique (§5.2 cites Wald's sequential
// analysis as the lineage of the analyzer's design). It accumulates
// standardized deviations above a drift allowance; crossing the
// threshold signals an upward latency shift.
//
// The production system uses LOF for the short-term window (it needs no
// parametric reference and handles multimodal histories); CUSUM is
// provided as the textbook alternative and for the ablation comparing
// their detection latencies — CUSUM reacts faster to small sustained
// shifts but needs a calibrated reference and drifts on noisy floors.
type CUSUM struct {
	// RefMu and RefSigma describe the healthy log-RTT distribution the
	// statistic is standardized against: fit them on a healthy window
	// with stats.LogMoments, the estimator the long-term detector
	// folds its windows into (stats.FitLogNormal over a slice).
	RefMu, RefSigma float64
	// Drift is the allowance k subtracted per observation (default
	// 0.75 standard deviations). The textbook k=0.5/h=5 operating
	// point has an in-control average run length of only ~930 samples —
	// a false alarm every ~15 minutes at one probe per second — so the
	// default sits higher, trading a little latency on sub-sigma shifts
	// for a monitoring-grade false-alarm rate.
	Drift float64
	// Threshold is the decision boundary h (default 8).
	Threshold float64

	s float64
}

// NewCUSUM returns a detector calibrated against a healthy log-normal
// reference.
func NewCUSUM(refMu, refSigma float64) *CUSUM {
	return &CUSUM{RefMu: refMu, RefSigma: refSigma, Drift: 0.75, Threshold: 8}
}

// Observe ingests one RTT sample (µs) and reports whether the
// cumulative statistic has crossed the threshold.
func (c *CUSUM) Observe(rttUS float64) bool {
	if rttUS <= 0 || c.RefSigma <= 0 {
		return false
	}
	z := (math.Log(rttUS) - c.RefMu) / c.RefSigma
	c.s += z - c.Drift
	if c.s < 0 {
		c.s = 0
	}
	return c.s > c.Threshold
}

// Statistic returns the current cumulative sum.
func (c *CUSUM) Statistic() float64 { return c.s }

// Reset clears the statistic (after an alarm has been handled).
func (c *CUSUM) Reset() { c.s = 0 }
