package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// twoPassFit is the slice-based maximum-likelihood fit LogMoments
// replaced, kept verbatim as the oracle the one-pass moments must
// track: the mean of the logs, then the biased variance about it.
func twoPassFit(xs []float64) (LogNormal, error) {
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
	mu := mean(logs)
	var sumsq float64
	for _, l := range logs {
		d := l - mu
		sumsq += d * d
	}
	sigma := math.Sqrt(sumsq / float64(len(logs)))
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// twoPassZTest is the slice-based Z-test ZTestMoments replaced, kept
// verbatim as its oracle.
func twoPassZTest(d LogNormal, xs []float64) (z, p float64, err error) {
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

// TestLogMomentsMatchTwoPass is the one-pass estimator's equivalence
// property over the detector's window sizes (the 50-sample minimum, a
// 30-minute window at 1 Hz, and a 15 Hz one) and spreads from the
// cancellation case (σ = 1e-4 around ln 16) to a wide one, over eight
// seeds: μ is bit-equal to the two-pass fit, σ within 1e-12 relative,
// and the moments' Z statistic bit-equal to the slice test's.
func TestLogMomentsMatchTwoPass(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, n := range []int{50, 1800, 54000} {
			for _, sigma := range []float64{1e-4, 0.15, 1.0} {
				dist := LogNormal{Mu: math.Log(16), Sigma: sigma}
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = dist.Sample(r)
				}
				m := momentsOf(xs)
				got, err := m.Fit()
				if err != nil {
					t.Fatal(err)
				}
				want, err := twoPassFit(xs)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Mu) != math.Float64bits(want.Mu) {
					t.Errorf("seed %d n=%d σ=%g: μ %v, two-pass %v", seed, n, sigma, got.Mu, want.Mu)
				}
				if rel := math.Abs(got.Sigma-want.Sigma) / want.Sigma; rel > 1e-12 {
					t.Errorf("seed %d n=%d σ=%g: σ %v, two-pass %v (relative error %.2g)", seed, n, sigma, got.Sigma, want.Sigma, rel)
				}
				ref := LogNormal{Mu: math.Log(15.5), Sigma: sigma}
				z, p, err := ref.ZTestMoments(m)
				if err != nil {
					t.Fatal(err)
				}
				wz, wp, _ := twoPassZTest(ref, xs)
				if math.Float64bits(z) != math.Float64bits(wz) || math.Float64bits(p) != math.Float64bits(wp) {
					t.Errorf("seed %d n=%d σ=%g: Z %v p %v, slice test Z %v p %v", seed, n, sigma, z, p, wz, wp)
				}
			}
		}
	}
}

func TestLogMomentsRejectBadSample(t *testing.T) {
	ref := LogNormal{Mu: 1, Sigma: 0.1}
	for _, xs := range [][]float64{{1, 0, 3}, {2, 3, -1}, {math.NaN(), 2}} {
		m := momentsOf(xs)
		if _, err := m.Fit(); err != ErrBadSample {
			t.Errorf("%v: fit error %v, want ErrBadSample", xs, err)
		}
		if _, _, err := ref.ZTestMoments(m); err != ErrBadSample {
			t.Errorf("%v: Z-test error %v, want ErrBadSample", xs, err)
		}
		if m.Len() != len(xs) {
			t.Errorf("%v: Len %d, want every value counted", xs, m.Len())
		}
	}
	if _, _, err := ref.ZTestMoments(LogMoments{}); err != ErrBadSample {
		t.Errorf("empty sample Z-test error %v, want ErrBadSample", err)
	}
}

// FuzzLogMoments drives the one-pass estimator with arbitrary float64
// sequences (eight bytes each): a sequence holding a value that is not
// positive is ErrBadSample for both the fit and the Z-test, and a
// finite positive one fits μ bit-equal to the two-pass oracle, with σ²
// inside the rounding bound of either algorithm, and Z-tests bit-equal
// to the slice test.
func FuzzLogMoments(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(16, 16.5, 15.8, 17.1))
	f.Add(seed(1, 1))
	f.Add(seed(1, math.Nextafter(1, 2), 1))
	f.Add(seed(1e-300, 1e300, 3))
	f.Add(seed(4, 0, 2))
	f.Add(seed(4, -2))
	f.Add(seed(math.NaN(), 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		bad, inf := false, false
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			bad = bad || !(xs[i] > 0)
			inf = inf || math.IsInf(xs[i], 1)
		}
		m := momentsOf(xs)
		ref := LogNormal{Mu: 1, Sigma: 0.5}
		got, err := m.Fit()
		_, _, zerr := ref.ZTestMoments(m)
		if bad {
			if err != ErrBadSample || zerr != ErrBadSample {
				t.Fatalf("%v: fit error %v, Z-test error %v, want ErrBadSample", xs, err, zerr)
			}
			return
		}
		if len(xs) == 0 {
			if zerr != ErrBadSample {
				t.Fatalf("empty sample Z-test error %v, want ErrBadSample", zerr)
			}
		} else if z, p, _ := ref.ZTestMoments(m); !inf {
			wz, wp, _ := twoPassZTest(ref, xs)
			if math.Float64bits(z) != math.Float64bits(wz) || math.Float64bits(p) != math.Float64bits(wp) {
				t.Fatalf("%v: Z %v p %v, slice test Z %v p %v", xs, z, p, wz, wp)
			}
		}
		want, werr := twoPassFit(xs)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%v: fit error %v, two-pass error %v", xs, err, werr)
		}
		if err != nil || inf {
			return
		}
		if math.Float64bits(got.Mu) != math.Float64bits(want.Mu) {
			t.Fatalf("%v: μ %v, two-pass %v", xs, got.Mu, want.Mu)
		}
		// Each algorithm's variance error is at most a few n·ε of
		// L·R, L the largest |ln x| and R the largest |ln x − μ|.
		var l, dev float64
		for _, x := range xs {
			lx := math.Log(x)
			l = math.Max(l, math.Abs(lx))
			dev = math.Max(dev, math.Abs(lx-want.Mu))
		}
		tol := 8 * float64(len(xs)+1) * 0x1p-52 * (l + dev) * dev
		if diff := math.Abs(got.Sigma*got.Sigma - want.Sigma*want.Sigma); diff > tol {
			t.Fatalf("%v: σ %v, two-pass %v: variance off by %g, bound %g", xs, got.Sigma, want.Sigma, diff, tol)
		}
	})
}
