// Package trace models the production workload distributions of §3.1
// and §5.1 (Figs. 2–6 and 12): container lifetimes skewed short and
// conditioned on task size and hardware configuration, phased container
// startup with multi-minute tails, RNIC-per-container allocation
// concentrated at 8 and 4, per-host flow-table populations with a heavy
// tail, and job GPU counts concentrated at multiples of eight.
//
// The generators are deterministic under a seed and are the workload
// source for the motivation-figure benchmarks and for campaign-scale
// simulations.
package trace

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// SizeClass buckets training tasks by container count, mirroring the
// legend of Fig. 2.
type SizeClass int

const (
	SizeSmall  SizeClass = iota // ≤ 256 containers
	SizeMedium                  // ≤ 1K
	SizeLarge                   // > 1K
)

func (s SizeClass) String() string {
	switch s {
	case SizeSmall:
		return "size≤256"
	case SizeMedium:
		return "size≤1K"
	default:
		return "size>1K"
	}
}

// ConfigClass buckets containers by hardware configuration (Fig. 3):
// lower-end configurations are used for debugging and die young.
type ConfigClass int

const (
	ConfigLowEnd ConfigClass = iota // debugging/testing boxes
	ConfigMidEnd
	ConfigHighEnd // production training boxes
)

func (c ConfigClass) String() string {
	switch c {
	case ConfigLowEnd:
		return "low-end"
	case ConfigMidEnd:
		return "mid-end"
	default:
		return "high-end"
	}
}

// Lifetime draws a container lifetime conditioned on task size
// (Fig. 2): small tasks skew short (≈50 % under 60 min), and ~70 % of
// all containers live under 100 min. The model is a lognormal whose
// median grows with task size.
func Lifetime(r *rand.Rand, size SizeClass) time.Duration {
	var medianMin, sigma float64
	switch size {
	case SizeSmall:
		medianMin, sigma = 58, 1.1
	case SizeMedium:
		medianMin, sigma = 75, 1.0
	default:
		medianMin, sigma = 95, 0.9
	}
	m := medianMin * math.Exp(sigma*r.NormFloat64())
	if m < 1 {
		m = 1
	}
	return time.Duration(m * float64(time.Minute))
}

// LifetimeByConfig draws a lifetime conditioned on hardware class
// (Fig. 3): higher-end configurations run longer.
func LifetimeByConfig(r *rand.Rand, cfg ConfigClass) time.Duration {
	var medianMin, sigma float64
	switch cfg {
	case ConfigLowEnd:
		medianMin, sigma = 35, 1.2
	case ConfigMidEnd:
		medianMin, sigma = 70, 1.0
	default:
		medianMin, sigma = 130, 0.9
	}
	m := medianMin * math.Exp(sigma*r.NormFloat64())
	if m < 1 {
		m = 1
	}
	return time.Duration(m * float64(time.Minute))
}

// StartupTimes draws the creation-to-running delay of every container
// in a task (Fig. 4): waves of ~32 containers spaced tens of seconds
// apart, exponential jitter, and a tail that stretches to ~10 minutes
// on large tasks.
func StartupTimes(r *rand.Rand, containers int) []time.Duration {
	out := make([]time.Duration, containers)
	for i := range out {
		wave := time.Duration(i/32) * 25 * time.Second
		jitter := time.Duration(r.ExpFloat64() * float64(12*time.Second))
		straggler := time.Duration(0)
		if r.Float64() < 0.02 { // occasional image-pull/cache-miss straggler
			straggler = time.Duration(r.ExpFloat64() * float64(3*time.Minute))
		}
		out[i] = 20*time.Second + wave + jitter + straggler
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RNICsPerContainer draws the number of RNICs bound to a container
// (Fig. 5): dominated by 8, then 4, with a small tail of 1/2-RNIC
// debug containers.
func RNICsPerContainer(r *rand.Rand) int {
	p := r.Float64()
	switch {
	case p < 0.68:
		return 8
	case p < 0.90:
		return 4
	case p < 0.95:
		return 2
	default:
		return 1
	}
}

// FlowTableItems draws a host's flow-table population (Fig. 6): most
// hosts carry tens of entries, the mean is >40, and a heavy tail
// reaches ~9.3K on hosts packed with many-tenant endpoints.
func FlowTableItems(r *rand.Rand) int {
	// Lognormal body with median ~32…
	n := int(32 * math.Exp(0.8*r.NormFloat64()))
	// …plus a rare multi-tenant pileup tail.
	if r.Float64() < 0.01 {
		n += int(r.ExpFloat64() * 1500)
	}
	if n < 1 {
		n = 1
	}
	if n > 9300 {
		n = 9300
	}
	return n
}

// JobGPUs draws a training job's GPU count (Fig. 12): concentrated on
// powers-of-two multiples of 8 — 128, 512 and 1024 dominate.
func JobGPUs(r *rand.Rand) int {
	p := r.Float64()
	switch {
	case p < 0.08:
		return 8
	case p < 0.16:
		return 16
	case p < 0.26:
		return 32
	case p < 0.34:
		return 64
	case p < 0.55:
		return 128
	case p < 0.66:
		return 256
	case p < 0.85:
		return 512
	case p < 0.97:
		return 1024
	default:
		return 2048
	}
}

// CDF computes the empirical CDF of durations at the given probe
// points, returning P(X ≤ p) for each.
func CDF(samples []time.Duration, points []time.Duration) []float64 {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]float64, len(points))
	for i, p := range points {
		idx := sort.Search(len(s), func(j int) bool { return s[j] > p })
		out[i] = float64(idx) / float64(len(s))
	}
	return out
}
