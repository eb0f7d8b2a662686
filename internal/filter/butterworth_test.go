package filter

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mathx"
)

func TestNewButterworthValidation(t *testing.T) {
	if _, err := NewButterworth(0, 0.5); err == nil {
		t.Error("order 0 should error")
	}
	if _, err := NewButterworth(4, 0); err == nil {
		t.Error("cutoff 0 should error")
	}
	if _, err := NewButterworth(4, 1); err == nil {
		t.Error("cutoff 1 should error")
	}
}

func TestButterworthDCGainUnity(t *testing.T) {
	for _, order := range []int{1, 2, 3, 4, 5, 8} {
		bw, err := NewButterworth(order, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if g := bw.FrequencyResponseMag(0); !mathx.AlmostEqual(g, 1, 1e-9) {
			t.Errorf("order %d: DC gain = %v, want 1", order, g)
		}
	}
}

func TestButterworthCutoffMinus3dB(t *testing.T) {
	// Butterworth magnitude at the cutoff is exactly 1/√2.
	for _, order := range []int{2, 4, 6} {
		bw, err := NewButterworth(order, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		g := bw.FrequencyResponseMag(0.4)
		if !mathx.AlmostEqual(g, 1/math.Sqrt2, 1e-6) {
			t.Errorf("order %d: |H(cutoff)| = %v, want %v", order, g, 1/math.Sqrt2)
		}
	}
}

func TestButterworthMonotoneMagnitude(t *testing.T) {
	// Butterworth is maximally flat: magnitude decreases monotonically.
	bw, err := NewButterworth(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for w := 0.0; w <= 1.0; w += 0.01 {
		g := bw.FrequencyResponseMag(w)
		if g > prev+1e-9 {
			t.Fatalf("magnitude not monotone at w=%v: %v > %v", w, g, prev)
		}
		prev = g
	}
}

func TestButterworthStopbandAttenuation(t *testing.T) {
	bw, err := NewButterworth(4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// 4th order: 80 dB/decade; at 5x cutoff expect < -50 dB.
	if g := bw.FrequencyResponseMag(0.99); g > 0.003 {
		t.Errorf("stopband gain %v, want < 0.003", g)
	}
}

func TestButterworthApplyAttenuatesHighFreq(t *testing.T) {
	bw, err := NewButterworth(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	low := make([]float64, n)
	high := make([]float64, n)
	for i := range low {
		low[i] = math.Sin(2 * math.Pi * 0.01 * float64(i))  // well below cutoff
		high[i] = math.Sin(2 * math.Pi * 0.45 * float64(i)) // well above
	}
	lo := bw.Apply(low)
	hi := bw.Apply(high)
	// Skip the transient.
	pl := mathx.Power(lo[200:])
	ph := mathx.Power(hi[200:])
	if pl < 0.4 {
		t.Errorf("passband power %v, want ≈ 0.5", pl)
	}
	if ph > 1e-4 {
		t.Errorf("stopband power %v, want ≈ 0", ph)
	}
}

func TestFiltFiltZeroPhase(t *testing.T) {
	// The peak of a smooth pulse must not shift after FiltFilt.
	bw, err := NewButterworth(4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	n := 256
	x := make([]float64, n)
	for i := range x {
		d := float64(i - 128)
		x[i] = math.Exp(-d * d / 200)
	}
	y := bw.FiltFilt(x)
	if len(y) != n {
		t.Fatalf("length changed: %d", len(y))
	}
	if peak := slices.Index(y, slices.Max(y)); peak < 126 || peak > 130 {
		t.Errorf("peak moved to %d, want ≈128 (zero phase)", peak)
	}
	// Causal Apply, by contrast, delays the peak.
	yc := bw.Apply(x)
	if peak := slices.Index(yc, slices.Max(yc)); peak <= 128 {
		t.Errorf("causal filter should delay the peak, got %d", peak)
	}
}

func TestFiltFiltEmptyAndShort(t *testing.T) {
	bw, err := NewButterworth(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out := bw.FiltFilt(nil); out != nil {
		t.Error("FiltFilt(nil) should be nil")
	}
	out := bw.FiltFilt([]float64{1, 2})
	if len(out) != 2 {
		t.Errorf("short input length = %d", len(out))
	}
}

func TestFiltFiltConstantSignal(t *testing.T) {
	bw, err := NewButterworth(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	for i := range x {
		x[i] = 7
	}
	y := bw.FiltFilt(x)
	for i, v := range y {
		if !mathx.AlmostEqual(v, 7, 1e-6) {
			t.Fatalf("constant distorted at %d: %v", i, v)
		}
	}
}

func TestFiltFiltSmoothsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 512
	clean := make([]float64, n)
	dirty := make([]float64, n)
	for i := range clean {
		clean[i] = math.Sin(2 * math.Pi * 0.01 * float64(i))
		dirty[i] = clean[i] + rng.NormFloat64()*0.3
	}
	bw, err := NewButterworth(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	y := bw.FiltFilt(dirty)
	var errBefore, errAfter float64
	for i := range clean {
		errBefore += (dirty[i] - clean[i]) * (dirty[i] - clean[i])
		errAfter += (y[i] - clean[i]) * (y[i] - clean[i])
	}
	if errAfter >= errBefore/2 {
		t.Errorf("FiltFilt residual %v, want < half of %v", errAfter, errBefore)
	}
}

func TestBiquadApplyIdentity(t *testing.T) {
	s := Biquad{B0: 1}
	x := []float64{1, -2, 3}
	y := s.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("unity biquad should be identity, got %v", y)
		}
	}
}

func BenchmarkFiltFilt512(b *testing.B) {
	bw, err := NewButterworth(4, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.FiltFilt(x)
	}
}
