// Package dsp provides the signal-processing substrate for traffic
// skeleton inference (§5.1): a radix-2 FFT, the Short-Time Fourier
// Transform used to fingerprint RNIC throughput burst cycles, and
// spectral feature extraction.
package dsp

import (
	"math"
	"math/cmplx"
)

// fftInPlace computes the DFT of a (len(a) a power of two) in place
// with an iterative radix-2 Cooley–Tukey algorithm; inverse flips the
// twiddle sign and leaves the 1/N normalization to the caller.
func fftInPlace(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// HannWindow returns the n-point Hann window, the standard taper for
// STFT analysis (reduces spectral leakage between burst harmonics).
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}
