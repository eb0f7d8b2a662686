package dwt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/mathx"
)

// makeImpulseSignal builds the paper's scenario: a smooth useful signal plus
// sparse impulse noise whose magnitude is comparable to the signal, plus a
// small Gaussian floor. Returns (clean, corrupted).
func makeImpulseSignal(rng *rand.Rand, n int, impulseRate, impulseMag, gaussSigma float64) (clean, dirty []float64) {
	clean = make([]float64, n)
	dirty = make([]float64, n)
	for i := range clean {
		t := float64(i)
		clean[i] = 10 + 2*math.Sin(t*0.05) + 0.8*math.Cos(t*0.11)
		dirty[i] = clean[i] + rng.NormFloat64()*gaussSigma
		if rng.Float64() < impulseRate {
			sign := 1.0
			if rng.Float64() < 0.5 {
				sign = -1
			}
			dirty[i] += sign * impulseMag * (0.7 + 0.6*rng.Float64())
		}
	}
	return clean, dirty
}

func TestCorrelationDenoiseImprovesSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clean, dirty := makeImpulseSignal(rng, 512, 0.05, 6, 0.15)
	out, err := CorrelationDenoise(dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(dirty) {
		t.Fatalf("output length %d, want %d", len(out), len(dirty))
	}
	before := dsp.SNRdB(clean, dirty)
	after := dsp.SNRdB(clean, out)
	if after <= before {
		t.Errorf("denoising did not improve SNR: before %.2f dB, after %.2f dB", before, after)
	}
	if after-before < 3 {
		t.Errorf("SNR gain only %.2f dB, want ≥ 3 dB", after-before)
	}
}

func TestCorrelationDenoisePreservesCleanSignal(t *testing.T) {
	// A smooth signal with no noise should survive nearly unchanged.
	n := 256
	clean := make([]float64, n)
	for i := range clean {
		clean[i] = 5 + math.Sin(float64(i)*0.04)
	}
	out, err := CorrelationDenoise(clean, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The periodized transform sees the wrap-around jump of a non-periodic
	// signal as an impulse at the boundary, so judge the interior strictly
	// and only bound the boundary error.
	var maxInterior, maxBoundary float64
	for i := range clean {
		e := math.Abs(out[i] - clean[i])
		if i >= 24 && i < n-24 {
			if e > maxInterior {
				maxInterior = e
			}
		} else if e > maxBoundary {
			maxBoundary = e
		}
	}
	if maxInterior > 0.01 {
		t.Errorf("interior distorted by %v, want < 0.01", maxInterior)
	}
	if maxBoundary > 0.6 {
		t.Errorf("boundary distorted by %v, want < 0.6", maxBoundary)
	}
}

func TestCorrelationDenoiseShortSignalPassthrough(t *testing.T) {
	x := []float64{1, 2, 3}
	out, err := CorrelationDenoise(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if out[i] != x[i] {
			t.Errorf("short signal should pass through unchanged, got %v", out)
		}
	}
	// And it must be a copy, not an alias.
	out[0] = 99
	if x[0] == 99 {
		t.Error("passthrough aliased the input")
	}
}

func TestCorrelationDenoiseDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, dirty := makeImpulseSignal(rng, 128, 0.1, 5, 0.1)
	orig := append([]float64(nil), dirty...)
	if _, err := CorrelationDenoise(dirty, nil); err != nil {
		t.Fatal(err)
	}
	for i := range dirty {
		if dirty[i] != orig[i] {
			t.Fatal("input mutated")
		}
	}
}

func TestCorrelationDenoiseAllWavelets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	clean, dirty := makeImpulseSignal(rng, 256, 0.06, 5, 0.1)
	for _, w := range allWavelets() {
		t.Run(w.Name(), func(t *testing.T) {
			out, err := CorrelationDenoise(dirty, &DenoiseConfig{Wavelet: w})
			if err != nil {
				t.Fatal(err)
			}
			before := dsp.SNRdB(clean, dirty)
			after := dsp.SNRdB(clean, out)
			if after <= before {
				t.Errorf("%s: SNR before %.2f, after %.2f", w.Name(), before, after)
			}
		})
	}
}

func TestCorrelationDenoiseConfigDefaults(t *testing.T) {
	c := (&DenoiseConfig{}).withDefaults()
	if c.Wavelet != DB4 || c.MaxIterations != 20 {
		t.Errorf("defaults = %+v", c)
	}
	var nilCfg *DenoiseConfig
	c = nilCfg.withDefaults()
	if c.Wavelet != DB4 {
		t.Error("nil config should take defaults")
	}
}

func TestCorrelationDenoiseRemovesIsolatedImpulses(t *testing.T) {
	// Constant signal with a handful of large spikes: after denoising the
	// spike positions must be pulled most of the way back to the baseline.
	n := 256
	dirty := make([]float64, n)
	for i := range dirty {
		dirty[i] = 10
	}
	// Varied magnitudes — real impulse noise is "irregular" (Sec. II-C);
	// identical spikes are a degenerate exact-tie case for Eq. 13.
	spikes := map[int]float64{40: 25, 100: 22, 170: 28, 220: 24}
	for s, v := range spikes {
		dirty[s] = v
	}
	out, err := CorrelationDenoise(dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := range spikes {
		if math.Abs(out[s]-10) > math.Abs(dirty[s]-10)/2 {
			t.Errorf("spike at %d only reduced to %v (baseline 10)", s, out[s])
		}
	}
}

func TestCorrelationDenoiseVsSpikeDensity(t *testing.T) {
	// The method should still help at the paper's "irregular, instantaneous"
	// impulse densities (a few percent); verify a mid and a low density.
	for _, rate := range []float64{0.02, 0.08} {
		rng := rand.New(rand.NewSource(5))
		clean, dirty := makeImpulseSignal(rng, 512, rate, 6, 0.1)
		out, err := CorrelationDenoise(dirty, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gain := dsp.SNRdB(clean, out) - dsp.SNRdB(clean, dirty); gain <= 0 {
			t.Errorf("rate %.2f: SNR gain %.2f dB, want > 0", rate, gain)
		}
	}
}

func TestDenoiseResidualVariance(t *testing.T) {
	// Paper Fig. 7 criterion: residual fluctuation after the proposed method
	// should be far below the raw fluctuation.
	rng := rand.New(rand.NewSource(6))
	_, dirty := makeImpulseSignal(rng, 512, 0.05, 6, 0.15)
	out, err := CorrelationDenoise(dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vr, vo := mathx.Variance(dirty), mathx.Variance(out); vo >= vr {
		t.Errorf("variance not reduced: %v → %v", vr, vo)
	}
}

func BenchmarkCorrelationDenoise512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	_, dirty := makeImpulseSignal(rng, 512, 0.05, 6, 0.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CorrelationDenoise(dirty, nil); err != nil {
			b.Fatal(err)
		}
	}
}
