package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// naiveDFT is the O(n²) reference implementation the fast paths are tested
// against.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			s += x[t] * cmplx.Rect(1, -2*math.Pi*float64(k*t)/float64(n))
		}
		out[k] = s
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func TestFFTMatchesNaiveDFTPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(rng, n)
		got := FFT(x)
		want := naiveDFT(x)
		if !complexClose(got, want, 1e-8*float64(n)) {
			t.Errorf("FFT(n=%d) does not match naive DFT", n)
		}
	}
}

func TestFFTMatchesNaiveDFTNonPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 7, 12, 30, 100, 127} {
		x := randComplex(rng, n)
		got := FFT(x)
		want := naiveDFT(x)
		if !complexClose(got, want, 1e-7*float64(n)) {
			t.Errorf("Bluestein FFT(n=%d) does not match naive DFT", n)
		}
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("FFT mutated input at %d", i)
		}
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 8, 13, 30, 64, 100} {
		x := randComplex(rng, n)
		back := IFFT(FFT(x))
		if !complexClose(back, x, 1e-9*float64(n+1)) {
			t.Errorf("IFFT(FFT(x)) != x for n=%d", n)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if FFT(nil) != nil {
		t.Error("FFT(nil) should be nil")
	}
	if IFFT(nil) != nil {
		t.Error("IFFT(nil) should be nil")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	got := FFT(x)
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("FFT(impulse)[%d] = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure complex tone at bin 3 concentrates all energy in that bin.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*3*float64(i)/float64(n))
	}
	got := FFT(x)
	for k, v := range got {
		mag := cmplx.Abs(v)
		if k == 3 {
			if math.Abs(mag-float64(n)) > 1e-9 {
				t.Errorf("bin 3 magnitude = %v, want %d", mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want 0", k, mag)
		}
	}
}

// Property: Parseval's theorem — energy in time equals energy/N in frequency.
func TestFFTParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(100)
		x := randComplex(rng, n)
		spec := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		for i := range spec {
			ef += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		ef /= float64(n)
		if !mathx.AlmostEqual(et, ef, 1e-8) {
			t.Fatalf("Parseval violated for n=%d: %v vs %v", n, et, ef)
		}
	}
}

// Property: FFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(64)
		a := randComplex(rng, n)
		b := randComplex(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + 2*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+2*fb[i])) > 1e-8*float64(n) {
				t.Fatalf("linearity violated at n=%d bin %d", n, i)
			}
		}
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestConvolveKnown(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{0, 1, 0.5})
	want := []float64{0, 1, 2.5, 4, 1.5}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !mathx.AlmostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Convolve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil || Convolve([]float64{1}, nil) != nil {
		t.Error("Convolve with empty operand should be nil")
	}
}

func TestConvolveFFTPathMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Force the FFT path with a long signal, compare against direct sum.
	a := make([]float64, 300)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := Convolve(a, b) // 300*40 = 12000 > 4096 → FFT path
	want := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			want[i+j] += av * bv
		}
	}
	for i := range want {
		if !mathx.AlmostEqual(got[i], want[i], 1e-7) {
			t.Fatalf("FFT convolution diverges from direct at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// Property: convolution is commutative.
func TestConvolveCommutativeProperty(t *testing.T) {
	f := func(ra, rb []float64) bool {
		a := sanitize(ra, 50)
		b := sanitize(rb, 50)
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		ab := Convolve(a, b)
		ba := Convolve(b, a)
		for i := range ab {
			if !mathx.AlmostEqual(ab[i], ba[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sanitize(raw []float64, maxLen int) []float64 {
	out := make([]float64, 0, len(raw))
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(x, 1e3))
		if len(out) == maxLen {
			break
		}
	}
	return out
}

func TestWindowCoefficients(t *testing.T) {
	for _, w := range []Window{WindowRect, WindowHann, WindowHamming, WindowBlackman} {
		t.Run(w.String(), func(t *testing.T) {
			c := w.Coefficients(64)
			if len(c) != 64 {
				t.Fatalf("len = %d", len(c))
			}
			// All windows are bounded by [0, 1] and symmetric.
			for i := range c {
				if c[i] < -1e-12 || c[i] > 1+1e-12 {
					t.Errorf("coefficient %d out of range: %v", i, c[i])
				}
				j := len(c) - 1 - i
				if !mathx.AlmostEqual(c[i], c[j], 1e-9) {
					t.Errorf("asymmetric at %d: %v vs %v", i, c[i], c[j])
				}
			}
		})
	}
	if got := WindowHann.Coefficients(0); got != nil {
		t.Error("n=0 should be nil")
	}
	if got := WindowHann.Coefficients(1); len(got) != 1 || got[0] != 1 {
		t.Error("n=1 should be [1]")
	}
}

func TestHannEndpointsZero(t *testing.T) {
	c := WindowHann.Coefficients(10)
	if c[0] != 0 || !mathx.AlmostEqual(c[9], 0, 1e-12) {
		t.Errorf("Hann endpoints = %v, %v, want 0", c[0], c[9])
	}
}

func TestWindowApply(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	got := WindowRect.Apply(x)
	for i := range got {
		if got[i] != 1 {
			t.Errorf("rect window should be identity, got %v", got)
		}
	}
}

func TestSNRdB(t *testing.T) {
	clean := []float64{1, 1, 1, 1}
	if got := SNRdB(clean, clean); !math.IsInf(got, 1) {
		t.Errorf("identical signals SNR = %v, want +Inf", got)
	}
	noisy := []float64{1.1, 0.9, 1.1, 0.9}
	got := SNRdB(clean, noisy)
	want := 10 * math.Log10(1/0.01)
	if !mathx.AlmostEqual(got, want, 1e-9) {
		t.Errorf("SNR = %v, want %v", got, want)
	}
	if !math.IsNaN(SNRdB(clean, []float64{1})) {
		t.Error("length mismatch should be NaN")
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
