// Package traffic synthesizes the per-RNIC throughput time series of a
// training task (§3.2, Fig. 7): long idle valleys punctuated by
// periodic bursts — pipeline activations during the compute phase and
// the data-parallel gradient all-reduce at each iteration boundary —
// sampled at the 1-second granularity production monitoring provides.
//
// The series carry the two structural properties skeleton inference
// relies on:
//
//   - RNICs at the same (tp, pp) position across different DP replicas
//     produce the *same* burst signature (§5.1: "the temporal throughput
//     burst cycles are similar for RNICs in the same position across
//     different parallelism groups"), while different positions produce
//     spectrally distinguishable signatures (different stages move
//     different shard sizes in differently chunked collectives, which
//     appears as position-specific harmonic content);
//   - later pipeline stages burst later within the iteration, so the
//     inter-position *time shift* encodes the PP stage order (§5.1).
package traffic

import (
	"math"
	"math/rand"
	"time"

	"skeletonhunter/internal/parallelism"
)

// Generator produces throughput series for one task.
type Generator struct {
	Par              parallelism.Config
	GPUsPerContainer int
	// IterPeriod is the training iteration length (default 30 s, the
	// typical round duration from §1).
	IterPeriod time.Duration
	// SampleInterval is the monitoring granularity (default 1 s, the
	// production limit noted under Fig. 7).
	SampleInterval time.Duration
	// PeakGbps is the observed per-sample burst peak (default 15, the
	// 1 s-averaged peak of Fig. 7).
	PeakGbps float64
	// Seed makes noise deterministic per generator.
	Seed int64
	// PhaseJitterSamples shifts each DP replica's whole burst schedule
	// by a deterministic offset in [-J, J] samples: replicas process
	// different data, so their per-microbatch compute times (and hence
	// burst phases) drift slightly relative to one another. Zero
	// disables. Phase jitter is what makes raw time-domain similarity
	// fragile while STFT magnitude fingerprints stay invariant (§5.1).
	PhaseJitterSamples int
}

// Position is the parallel-grid position of an endpoint: the pair that
// defines "same position across DP groups".
type Position struct {
	TP, PP int
}

func (g *Generator) defaults() Generator {
	d := *g
	if d.GPUsPerContainer == 0 {
		d.GPUsPerContainer = 8
	}
	if d.IterPeriod == 0 {
		d.IterPeriod = 30 * time.Second
	}
	if d.SampleInterval == 0 {
		d.SampleInterval = time.Second
	}
	if d.PeakGbps == 0 {
		d.PeakGbps = 15
	}
	return d
}

// PositionOf returns the grid position and DP replica of an endpoint
// under canonical packing (consecutive ranks fill containers).
func (g *Generator) PositionOf(ep parallelism.Endpoint) (Position, int) {
	d := g.defaults()
	rank := parallelism.Rank(ep.Container*d.GPUsPerContainer + ep.Rail)
	co := d.Par.CoordOf(rank)
	return Position{TP: co.TP, PP: co.PP}, co.DP
}

// Series generates len = duration/SampleInterval throughput samples
// (in Gbps) for the given endpoint. Endpoints at the same Position but
// different DP replicas yield series with identical burst structure
// (differing only in noise); different positions yield spectrally
// distinct series.
func (g *Generator) Series(ep parallelism.Endpoint, duration time.Duration) []float64 {
	d := g.defaults()
	pos, dp := g.PositionOf(ep)
	nSamples := int(duration / d.SampleInterval)
	out := make([]float64, nSamples)

	// Noise must differ per endpoint (so identical-position series are
	// similar, not equal) but stay deterministic.
	rng := rand.New(rand.NewSource(d.Seed ^ int64(ep.Container*1024+ep.Rail+7)))

	period := d.IterPeriod.Seconds()
	dt := d.SampleInterval.Seconds()

	// Position-specific harmonic modulation: collective chunking for a
	// given (tp, pp) shard produces a micro-burst structure whose
	// frequencies identify the position in the magnitude spectrum even
	// though time shifts do not.
	m1 := 3 + pos.TP              // tp-dependent chunk frequency
	m2 := 4 + d.Par.TP + pos.PP*2 // pp-dependent chunk frequency

	ppStages := d.Par.PP
	dpDegree := d.Par.DP
	epDegree := d.Par.EP
	if epDegree == 0 {
		epDegree = 1
	}

	// Per-replica schedule shift (see PhaseJitterSamples).
	var shift float64
	if d.PhaseJitterSamples > 0 {
		j := d.PhaseJitterSamples
		shift = float64(int(uint32(dp*2654435761)>>8)%(2*j+1)-j) * dt
	}

	for i := 0; i < nSamples; i++ {
		tsec := float64(i)*dt - shift
		phase := math.Mod(math.Mod(tsec, period)+period, period) / period // [0,1) within iteration
		v := 0.0

		// Pipeline bursts during the compute window [0, 0.6): stage s is
		// active around its forward slot and its backward slot. Later
		// stages burst later — the PP time-shift signal.
		if ppStages > 1 {
			fwd := 0.3 * float64(pos.PP) / float64(ppStages)
			bwd := 0.3 + 0.3*float64(ppStages-1-pos.PP)/float64(ppStages)
			width := 0.3 / float64(ppStages)
			if inWindow(phase, fwd, width) || inWindow(phase, bwd, width) {
				v += 0.45 * d.PeakGbps
			}
		}

		// Expert-parallel all-to-all: MoE layers fire twice mid-compute.
		if epDegree > 1 {
			if inWindow(phase, 0.15, 0.05) || inWindow(phase, 0.45, 0.05) {
				v += 0.6 * d.PeakGbps
			}
		}

		// Data-parallel gradient all-reduce at the iteration boundary —
		// the dominant burst of Fig. 7, synchronized across the task.
		if dpDegree > 1 && phase >= 0.8 {
			v += d.PeakGbps
		}

		if v > 0 {
			// Apply the position-identifying micro-burst modulation.
			mod := 1 + 0.35*math.Sin(2*math.Pi*float64(m1)*phase) +
				0.35*math.Sin(2*math.Pi*float64(m2)*phase)
			if mod < 0.05 {
				mod = 0.05
			}
			v *= mod
			v *= 1 + 0.03*rng.NormFloat64() // amplitude noise
		}
		// Idle-floor noise (control traffic, monitoring).
		v += 0.05 + 0.03*rng.Float64()
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// inWindow reports whether phase lies within [center-width/2,
// center+width/2) of the unit circle.
func inWindow(phase, center, width float64) bool {
	lo := center - width/2
	hi := center + width/2
	if lo < 0 {
		return phase >= lo+1 || phase < hi
	}
	if hi > 1 {
		return phase >= lo || phase < hi-1
	}
	return phase >= lo && phase < hi
}

// Endpoints enumerates the task's endpoints in deterministic order.
func (g *Generator) Endpoints() []parallelism.Endpoint {
	d := g.defaults()
	n := d.Par.NumGPUs()
	containers := n / d.GPUsPerContainer
	out := make([]parallelism.Endpoint, 0, n)
	for c := 0; c < containers; c++ {
		for r := 0; r < d.GPUsPerContainer; r++ {
			out = append(out, parallelism.Endpoint{Container: c, Rail: r})
		}
	}
	return out
}
