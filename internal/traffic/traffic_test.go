package traffic

import (
	"testing"
	"time"

	"skeletonhunter/internal/dsp"
	"skeletonhunter/internal/parallelism"
)

func gen(par parallelism.Config) *Generator {
	return &Generator{Par: par, GPUsPerContainer: 8, Seed: 42}
}

func TestSeriesShapeAndBurstCycle(t *testing.T) {
	// Fig. 7: 900 s of a training container shows periodic peaks near
	// 15 Gbps with idle valleys between.
	g := gen(parallelism.Config{TP: 8, PP: 4, DP: 4})
	s := g.Series(parallelism.Endpoint{Container: 0, Rail: 0}, 900*time.Second)
	if len(s) != 900 {
		t.Fatalf("samples = %d, want 900", len(s))
	}
	peak, idle := 0.0, 0
	for _, v := range s {
		if v > peak {
			peak = v
		}
		if v < 1 {
			idle++
		}
	}
	if peak < 10 {
		t.Fatalf("burst peak = %v Gbps, want ≥ 10", peak)
	}
	if idle < 300 {
		t.Fatalf("idle samples = %d, want a substantial idle fraction", idle)
	}
	// Periodicity: the dominant frequency matches the 30 s iteration.
	fp := dsp.BurstFingerprint(s, 128, 64)
	bin, mag := dsp.DominantFrequency(fp)
	if mag <= 0 || bin == 0 {
		t.Fatal("no dominant burst frequency")
	}
}

func TestSamePositionSameSignature(t *testing.T) {
	// Endpoints at the same (tp, pp) across DP replicas must have close
	// fingerprints; different positions must be farther apart.
	g := gen(parallelism.Config{TP: 8, PP: 4, DP: 4})
	dur := 900 * time.Second
	// Container = dp*PP + pp for TP=8 packing. Position (tp=0, pp=1):
	// containers 1, 5, 9, 13.
	a := dsp.BurstFingerprint(g.Series(parallelism.Endpoint{Container: 1, Rail: 0}, dur), 128, 64)
	b := dsp.BurstFingerprint(g.Series(parallelism.Endpoint{Container: 5, Rail: 0}, dur), 128, 64)
	// Different pp, same tp: container 2 is (pp=2, dp=0).
	c := dsp.BurstFingerprint(g.Series(parallelism.Endpoint{Container: 2, Rail: 0}, dur), 128, 64)
	// Different tp, same pp: rail 3 of container 1.
	d := dsp.BurstFingerprint(g.Series(parallelism.Endpoint{Container: 1, Rail: 3}, dur), 128, 64)

	same := dsp.FeatureDistance(a, b)
	diffPP := dsp.FeatureDistance(a, c)
	diffTP := dsp.FeatureDistance(a, d)
	if same >= diffPP {
		t.Fatalf("same-position distance %v not below cross-pp %v", same, diffPP)
	}
	if same >= diffTP {
		t.Fatalf("same-position distance %v not below cross-tp %v", same, diffTP)
	}
	if same > 0.05 {
		t.Fatalf("same-position distance too large: %v", same)
	}
}

// foldProfile averages a series over its iteration period (in samples),
// yielding the mean per-phase throughput profile.
func foldProfile(s []float64, period int) []float64 {
	prof := make([]float64, period)
	counts := make([]int, period)
	for i, v := range s {
		prof[i%period] += v
		counts[i%period]++
	}
	for i := range prof {
		prof[i] /= float64(counts[i])
	}
	return prof
}

func TestPPTimeShiftOrdersStages(t *testing.T) {
	// Later pipeline stages burst later within the iteration: the
	// forward-burst onset phase must be monotone in the stage index.
	g := gen(parallelism.Config{TP: 8, PP: 4, DP: 2})
	dur := 900 * time.Second
	onset := func(container int) int {
		s := g.Series(parallelism.Endpoint{Container: container, Rail: 0}, dur)
		prof := foldProfile(s, 30)
		// First phase slot (excluding the wrapping slot 0 region and the
		// DP window ≥ 24) with pipeline activity.
		for i := 1; i < 24; i++ {
			if prof[i] > 2 {
				return i
			}
		}
		return -1
	}
	o1, o2, o3 := onset(1), onset(2), onset(3) // pp = 1, 2, 3
	if o1 < 0 || o2 < 0 || o3 < 0 {
		t.Fatalf("missing pipeline bursts: onsets %d %d %d", o1, o2, o3)
	}
	if !(o1 < o2 && o2 < o3) {
		t.Fatalf("onsets not ordered by stage: %d %d %d", o1, o2, o3)
	}
	// Stage 0 is active right at the start of the iteration.
	s0 := g.Series(parallelism.Endpoint{Container: 0, Rail: 0}, dur)
	prof0 := foldProfile(s0, 30)
	if prof0[0] < 2 {
		t.Fatalf("stage 0 not active at phase 0: %v", prof0[0])
	}
}

func TestPositionOf(t *testing.T) {
	g := gen(parallelism.Config{TP: 8, PP: 4, DP: 4})
	pos, dp := g.PositionOf(parallelism.Endpoint{Container: 5, Rail: 3})
	// Container 5 = dp1, pp1; rail 3 = tp3.
	if pos != (Position{TP: 3, PP: 1}) || dp != 1 {
		t.Fatalf("position = %+v dp=%d", pos, dp)
	}
}

func TestSeriesCoversEveryEndpoint(t *testing.T) {
	g := gen(parallelism.Config{TP: 8, PP: 2, DP: 2})
	eps := g.Endpoints()
	if len(eps) != 32 {
		t.Fatalf("endpoint count = %d, want 32", len(eps))
	}
	seen := map[parallelism.Endpoint]bool{}
	for _, ep := range eps {
		if seen[ep] {
			t.Fatalf("endpoint %+v listed twice", ep)
		}
		seen[ep] = true
		if len(g.Series(ep, 120*time.Second)) == 0 {
			t.Fatalf("empty series for %+v", ep)
		}
	}
}

func TestSeriesDeterministic(t *testing.T) {
	g := gen(parallelism.Config{TP: 8, PP: 2, DP: 2})
	ep := parallelism.Endpoint{Container: 1, Rail: 2}
	a := g.Series(ep, 300*time.Second)
	b := g.Series(ep, 300*time.Second)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("series not deterministic")
		}
	}
}

func TestMoEAddsMidIterationBursts(t *testing.T) {
	dense := gen(parallelism.Config{TP: 8, PP: 1, DP: 8})
	moe := gen(parallelism.Config{TP: 8, PP: 1, DP: 8, EP: 4})
	ep := parallelism.Endpoint{Container: 0, Rail: 0}
	ds := dense.Series(ep, 300*time.Second)
	ms := moe.Series(ep, 300*time.Second)
	// MoE series must carry strictly more energy (extra all-to-all).
	var de, me float64
	for i := range ds {
		de += ds[i]
		me += ms[i]
	}
	if me <= de {
		t.Fatalf("MoE energy %v not above dense %v", me, de)
	}
}

func TestDPOnlyTaskStillBursts(t *testing.T) {
	// PP=1, EP=1: only the DP all-reduce burst remains — series must
	// still be periodic, not flat.
	g := gen(parallelism.Config{TP: 8, PP: 1, DP: 4})
	s := g.Series(parallelism.Endpoint{Container: 0, Rail: 0}, 300*time.Second)
	peak := 0.0
	for _, v := range s {
		if v > peak {
			peak = v
		}
	}
	if peak < 5 {
		t.Fatalf("DP-only peak = %v, want a clear burst", peak)
	}
}

func TestInWindowWraparound(t *testing.T) {
	if !inWindow(0.98, 0.0, 0.1) {
		t.Fatal("wraparound low edge not in window")
	}
	if !inWindow(0.02, 0.0, 0.1) {
		t.Fatal("wraparound high edge not in window")
	}
	if inWindow(0.5, 0.0, 0.1) {
		t.Fatal("0.5 in window centred at 0")
	}
	if !inWindow(0.97, 0.99, 0.1) {
		t.Fatal("high-centre window lower edge")
	}
	if !inWindow(0.01, 0.99, 0.1) {
		t.Fatal("high-centre window wrapped edge")
	}
}
