// Package dsp provides the Fourier transforms the rest of WiMi is built
// on: FFT/IFFT for arbitrary lengths, and the reusable Plan behind them.
//
// The paper's authors leaned on MATLAB toolboxes; the repro band flags "weak
// DSP libraries" in Go, so everything here is implemented from scratch on
// the standard library only.
package dsp

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
