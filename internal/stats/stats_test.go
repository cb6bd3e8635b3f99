package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Percentile(sorted, 0.5); !almost(got, 25, 1e-12) {
		t.Fatalf("p50 = %v, want 25", got)
	}
	if got := Percentile(sorted, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(sorted, 1); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestPercentileOrderProperty(t *testing.T) {
	// Property: percentile is monotone in p and bounded by [min, max].
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		pa := math.Abs(math.Mod(p1, 1))
		pb := math.Abs(math.Mod(p2, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := Percentile(sorted, pa), Percentile(sorted, pb)
		return qa <= qb+1e-9 && qa >= sorted[0]-1e-9 && qb <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

func TestFitLogNormalRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	want := LogNormal{Mu: 2.8, Sigma: 0.22} // ~16µs-scale RTT in µs logs
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = want.Sample(r)
	}
	got, err := FitLogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Mu, want.Mu, 0.01) || !almost(got.Sigma, want.Sigma, 0.01) {
		t.Fatalf("fit = %+v, want ≈ %+v", got, want)
	}
}

func TestFitLogNormalRejectsBadInput(t *testing.T) {
	if _, err := FitLogNormal(nil); err == nil {
		t.Fatal("expected error on empty sample")
	}
	if _, err := FitLogNormal([]float64{1}); err == nil {
		t.Fatal("expected error on single sample")
	}
	if _, err := FitLogNormal([]float64{1, -2, 3}); err == nil {
		t.Fatal("expected error on non-positive sample")
	}
}

func TestLogNormalMoments(t *testing.T) {
	// Samples have the distribution's median exp(μ) and mean
	// exp(μ + σ²/2).
	d := LogNormal{Mu: 1, Sigma: 0.5}
	r := rand.New(rand.NewSource(8))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	if got := mean(xs); !almost(got, math.Exp(1.125), 0.02) {
		t.Fatalf("sample mean = %v, want ≈ %v", got, math.Exp(1.125))
	}
	sort.Float64s(xs)
	if got := Percentile(xs, 0.5); !almost(got, math.E, 0.02) {
		t.Fatalf("sample median = %v, want ≈ e", got)
	}
}

func TestZTestDetectsShift(t *testing.T) {
	ref := LogNormal{Mu: math.Log(16), Sigma: 0.2}
	r := rand.New(rand.NewSource(3))

	// Consistent sample: drawn from the reference itself.
	good := make([]float64, 500)
	for i := range good {
		good[i] = ref.Sample(r)
	}
	_, p, err := ref.ZTest(good)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("consistent sample rejected: p = %v", p)
	}

	// Shifted sample: the Fig. 18 case, 16µs → 120µs.
	bad := make([]float64, 500)
	shift := LogNormal{Mu: math.Log(120), Sigma: 0.2}
	for i := range bad {
		bad[i] = shift.Sample(r)
	}
	z, p, err := ref.ZTest(bad)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 || z < 10 {
		t.Fatalf("shifted sample not rejected: z = %v, p = %v", z, p)
	}
}

func TestZTestGradualDegradationDetectable(t *testing.T) {
	// A 30% latency creep — the gradual degradation long-term analysis
	// exists to catch (§5.2) — must be flagged with enough samples.
	ref := LogNormal{Mu: math.Log(16), Sigma: 0.2}
	r := rand.New(rand.NewSource(5))
	crept := LogNormal{Mu: math.Log(16 * 1.3), Sigma: 0.2}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = crept.Sample(r)
	}
	_, p, err := ref.ZTest(xs)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("gradual degradation not detected: p = %v", p)
	}
}

func TestZTestErrors(t *testing.T) {
	d := LogNormal{Mu: 1, Sigma: 0.1}
	if _, _, err := d.ZTest(nil); err == nil {
		t.Fatal("expected error on empty sample")
	}
	if _, _, err := d.ZTest([]float64{-1}); err == nil {
		t.Fatal("expected error on negative sample")
	}
	zero := LogNormal{Mu: 1, Sigma: 0}
	if _, _, err := zero.ZTest([]float64{1}); err == nil {
		t.Fatal("expected error on zero-sigma reference")
	}
}

func TestNormalCDF(t *testing.T) {
	// The Z-test's p-value is built on the standard normal tail:
	// Φ(z) = 1 - P(Z > z).
	if !almost(1-normalSurvival(0), 0.5, 1e-12) {
		t.Fatal("Φ(0) != 0.5")
	}
	if got := 1 - normalSurvival(1.96); !almost(got, 0.975, 1e-3) {
		t.Fatalf("Φ(1.96) = %v", got)
	}
	if got := 1 - normalSurvival(-1.96); !almost(got, 0.025, 1e-3) {
		t.Fatalf("Φ(-1.96) = %v", got)
	}
}
