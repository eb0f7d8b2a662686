// Package dsp provides the core digital-signal-processing primitives the
// WiMi pipeline and its comparison filters are built on: FFT/IFFT for
// arbitrary lengths, convolution, window functions and SNR estimation.
//
// The paper's authors leaned on MATLAB toolboxes; the repro band flags "weak
// DSP libraries" in Go, so everything here is implemented from scratch on
// the standard library only.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. Any length is accepted:
// powers of two use an iterative radix-2 Cooley-Tukey kernel; other lengths
// fall back to Bluestein's chirp-z algorithm. The input is not mutated.
// An empty input returns an empty output.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	p := PooledPlan(n)
	p.Transform(out, x)
	ReleasePlan(p)
	return out
}

// IFFT returns the inverse discrete Fourier transform of x, normalised by
// 1/N so that IFFT(FFT(x)) == x.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	p := PooledPlan(n)
	p.Inverse(out, x)
	ReleasePlan(p)
	return out
}

// fftRadix2 performs an in-place iterative Cooley-Tukey FFT. len(x) must be
// a power of two. When inverse is true the conjugate transform is computed
// (no normalisation).
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Rect(1, step*float64(k))
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Convolve returns the full linear convolution of a and b
// (length len(a)+len(b)-1). Empty inputs yield nil. Short inputs use the
// direct O(n·m) form; longer ones go through the FFT.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	if len(a)*len(b) <= 4096 {
		out := make([]float64, outLen)
		for i, av := range a {
			for j, bv := range b {
				out[i+j] += av * bv
			}
		}
		return out
	}
	m := NextPow2(outLen)
	ca := make([]complex128, m)
	cb := make([]complex128, m)
	for i, v := range a {
		ca[i] = complex(v, 0)
	}
	for i, v := range b {
		cb[i] = complex(v, 0)
	}
	fftRadix2(ca, false)
	fftRadix2(cb, false)
	for i := range ca {
		ca[i] *= cb[i]
	}
	fftRadix2(ca, true)
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(ca[i]) / float64(m)
	}
	return out
}
