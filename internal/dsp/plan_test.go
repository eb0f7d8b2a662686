package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// planNaiveDFT is the O(n²) reference the plan is checked against.
func planNaiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			sum += x[t] * cmplx.Rect(1, sign*2*math.Pi*float64(k)*float64(t)/float64(n))
		}
		out[k] = sum
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

func planRandComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestPlanMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 12, 16, 30, 64, 100} {
		x := planRandComplex(n, int64(n))
		p := newPlan(n)
		if p.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, p.Len())
		}
		fwd := make([]complex128, n)
		p.Transform(fwd, x)
		want := planNaiveDFT(x, false)
		for i := range fwd {
			if cmplx.Abs(fwd[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: Transform[%d] = %v, want %v", n, i, fwd[i], want[i])
			}
		}
		inv := make([]complex128, n)
		p.Inverse(inv, fwd)
		for i := range inv {
			if cmplx.Abs(inv[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: round trip [%d] = %v, want %v", n, i, inv[i], x[i])
			}
		}
	}
}

func TestPlanMatchesFFTBitExact(t *testing.T) {
	// The one-shot FFT/IFFT wrappers delegate to a pooled plan; a private
	// plan must agree with them exactly, not just within tolerance.
	for _, n := range []int{8, 30, 64, 90} {
		x := planRandComplex(n, 42+int64(n))
		p := newPlan(n)
		got := make([]complex128, n)
		p.Transform(got, x)
		for i, w := range FFT(x) {
			if got[i] != w {
				t.Fatalf("n=%d: Transform[%d] = %v, FFT gives %v", n, i, got[i], w)
			}
		}
		p.Inverse(got, x)
		for i, w := range IFFT(x) {
			if got[i] != w {
				t.Fatalf("n=%d: Inverse[%d] = %v, IFFT gives %v", n, i, got[i], w)
			}
		}
	}
}

func TestPlanInPlace(t *testing.T) {
	for _, n := range []int{16, 30} {
		x := planRandComplex(n, 7)
		want := FFT(x)
		buf := append([]complex128(nil), x...)
		p := newPlan(n)
		p.Transform(buf, buf)
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: in-place Transform[%d] = %v, want %v", n, i, buf[i], want[i])
			}
		}
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	p := newPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	p.Transform(make([]complex128, 8), make([]complex128, 7))
}

// TestPlanTransformZeroAllocs is the steady-state allocation guard: once a
// plan exists, Transform and Inverse must not touch the heap, for both the
// radix-2 and Bluestein code paths.
func TestPlanTransformZeroAllocs(t *testing.T) {
	for _, n := range []int{64, 90} {
		p := newPlan(n)
		src := planRandComplex(n, 3)
		dst := make([]complex128, n)
		allocs := testing.AllocsPerRun(100, func() {
			p.Transform(dst, src)
			p.Inverse(dst, dst)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs per Transform+Inverse, want 0", n, allocs)
		}
	}
}

func BenchmarkPlanTransformPow2(b *testing.B) {
	const n = 256
	p := newPlan(n)
	src := planRandComplex(n, 1)
	dst := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(dst, src)
	}
}

func BenchmarkPlanTransformBluestein(b *testing.B) {
	const n = 90
	p := newPlan(n)
	src := planRandComplex(n, 1)
	dst := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(dst, src)
	}
}

func BenchmarkFFTOneShotBluestein(b *testing.B) {
	src := planRandComplex(90, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(src)
	}
}
