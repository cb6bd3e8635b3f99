package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// fft transforms a copy of x, zero-padded to a power of two, with the
// in-place kernel STFT runs; inverse applies the 1/N-normalized inverse.
func fft(x []complex128, inverse bool) []complex128 {
	a := make([]complex128, nextPow2(len(x)))
	copy(a, x)
	fftInPlace(a, inverse)
	if inverse {
		for i := range a {
			a[i] /= complex(float64(len(a)), 0)
		}
	}
	return a
}

func TestFFTKnownImpulse(t *testing.T) {
	// DFT of an impulse is flat.
	spec := fft([]complex128{1, 0, 0, 0}, false)
	for k, c := range spec {
		if cmplx.Abs(c-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", k, c)
		}
	}
}

func TestFFTKnownConstant(t *testing.T) {
	// DFT of a constant concentrates at DC.
	spec := fft([]complex128{1, 1, 1, 1}, false)
	if cmplx.Abs(spec[0]-4) > 1e-12 {
		t.Fatalf("DC = %v, want 4", spec[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(spec[k]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", k, spec[k])
		}
	}
}

func TestFFTSinePeak(t *testing.T) {
	// A pure sine at bin 5 of a 64-sample window peaks exactly there.
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*5*float64(i)/float64(n)), 0)
	}
	spec := fft(x, false)
	peak := 0
	for k := 1; k <= n/2; k++ {
		if cmplx.Abs(spec[k]) > cmplx.Abs(spec[peak]) {
			peak = k
		}
	}
	if peak != 5 {
		t.Fatalf("peak at bin %d, want 5", peak)
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	got := fft(x, false)
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			want += x[j] * cmplx.Rect(1, ang)
		}
		if cmplx.Abs(got[k]-want) > 1e-9 {
			t.Fatalf("bin %d: fft=%v dft=%v", k, got[k], want)
		}
	}
}

func TestIFFTRoundTripProperty(t *testing.T) {
	f := func(re, im []float64) bool {
		n := len(re)
		if len(im) < n {
			n = len(im)
		}
		if n == 0 || n > 256 {
			return true
		}
		x := make([]complex128, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(re[i]) || math.IsInf(re[i], 0) || math.IsNaN(im[i]) || math.IsInf(im[i], 0) {
				return true
			}
			// Bound magnitudes to keep roundoff comparable.
			x[i] = complex(math.Mod(re[i], 1e6), math.Mod(im[i], 1e6))
		}
		y := fft(fft(x, false), true)
		for i := 0; i < n; i++ {
			if cmplx.Abs(y[i]-x[i]) > 1e-6*(1+cmplx.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// Energy conservation: Σ|x|² = (1/N)Σ|X|² for power-of-two input.
	r := rand.New(rand.NewSource(22))
	n := 128
	x := make([]complex128, n)
	var tEnergy float64
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
		tEnergy += real(x[i]) * real(x[i])
	}
	spec := fft(x, false)
	var fEnergy float64
	for _, c := range spec {
		fEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	fEnergy /= float64(n)
	if math.Abs(tEnergy-fEnergy) > 1e-6*tEnergy {
		t.Fatalf("Parseval violated: time=%v freq=%v", tEnergy, fEnergy)
	}
}

func TestFFTZeroPadding(t *testing.T) {
	if got := len(fft(make([]complex128, 5), false)); got != 8 {
		t.Fatalf("padded length = %d, want 8", got)
	}
	if got := len(fft(nil, false)); got != 1 {
		t.Fatalf("empty input length = %d, want 1", got)
	}
}

func TestHannWindow(t *testing.T) {
	w := HannWindow(9)
	if w[0] > 1e-12 || w[8] > 1e-12 {
		t.Fatalf("endpoints = %v, %v; want 0", w[0], w[8])
	}
	if math.Abs(w[4]-1) > 1e-12 {
		t.Fatalf("center = %v, want 1", w[4])
	}
	// Symmetry.
	for i := 0; i < 4; i++ {
		if math.Abs(w[i]-w[8-i]) > 1e-12 {
			t.Fatal("window not symmetric")
		}
	}
	if w := HannWindow(1); w[0] != 1 {
		t.Fatal("1-point window should be identity")
	}
}
