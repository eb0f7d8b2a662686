package hardware

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/csi"
	"repro/internal/mathx"
)

func cleanMatrix(t *testing.T, numAnt int) *csi.Matrix {
	t.Helper()
	m, err := csi.NewMatrix(numAnt)
	if err != nil {
		t.Fatal(err)
	}
	for ant := 0; ant < numAnt; ant++ {
		for sub := 0; sub < csi.NumSubcarriers; sub++ {
			// A clean channel: unit-ish amplitude, smooth phase across
			// subcarriers, slight per-antenna phase offset (geometry).
			m.Values[ant][sub] = cmplx.Rect(1.0, 0.3+0.01*float64(sub)+0.2*float64(ant))
		}
	}
	return m
}

func TestProfileValidate(t *testing.T) {
	good := DefaultProfile()
	if err := good.Validate(); err != nil {
		t.Errorf("default profile invalid: %v", err)
	}
	bad := good
	bad.ImpulseProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("ImpulseProb > 1 should error")
	}
	bad = good
	bad.PhaseNoiseSigma = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative PhaseNoiseSigma should error")
	}
	bad = good
	bad.QuantBits = 99
	if err := bad.Validate(); err == nil {
		t.Error("excessive QuantBits should error")
	}
}

func TestNewImperfectionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewImperfection(DefaultProfile(), 0, rng); err == nil {
		t.Error("0 antennas should error")
	}
	if _, err := NewImperfection(DefaultProfile(), 2, nil); err == nil {
		t.Error("nil rng should error")
	}
	bad := DefaultProfile()
	bad.OutlierProb = -1
	if _, err := NewImperfection(bad, 2, rng); err == nil {
		t.Error("invalid profile should error")
	}
}

func TestCorruptAntennaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im, err := NewImperfection(DefaultProfile(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := cleanMatrix(t, 2)
	if err := im.Corrupt(m); err == nil {
		t.Error("antenna count mismatch should error")
	}
}

func TestCorruptDeterministic(t *testing.T) {
	run := func() *csi.Matrix {
		rng := rand.New(rand.NewSource(42))
		im, err := NewImperfection(DefaultProfile(), 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		m := cleanMatrix(t, 3)
		if err := im.Corrupt(m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	for ant := range a.Values {
		for sub := range a.Values[ant] {
			if a.Values[ant][sub] != b.Values[ant][sub] {
				t.Fatalf("same seed produced different corruption at %d/%d", ant, sub)
			}
		}
	}
}

// TestRawPhaseUniformAcrossPackets reproduces Fig. 2's grey dots: the raw
// phase at one subcarrier across many packets is spread over the whole
// circle.
func TestRawPhaseUniformAcrossPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im, err := NewImperfection(DefaultProfile(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	var phases []float64
	for pkt := 0; pkt < 300; pkt++ {
		m := cleanMatrix(t, 3)
		if err := im.Corrupt(m); err != nil {
			t.Fatal(err)
		}
		ph, err := m.Phase(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, ph)
	}
	if spread := mathx.AngularSpreadDeg(phases); spread < 180 {
		t.Errorf("raw phase spread = %v°, want wide (Fig. 2 grey dots)", spread)
	}
}

// TestPhaseDiffStableAcrossPackets reproduces Fig. 2's red dots: the
// inter-antenna phase difference clusters tightly because CFO/SFO/PBD are
// board-common.
func TestPhaseDiffStableAcrossPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	im, err := NewImperfection(DefaultProfile(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	var diffs []float64
	for pkt := 0; pkt < 300; pkt++ {
		m := cleanMatrix(t, 3)
		if err := im.Corrupt(m); err != nil {
			t.Fatal(err)
		}
		d, err := m.PhaseDiff(0, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		diffs = append(diffs, d)
	}
	spread := mathx.AngularSpreadDeg(diffs)
	// Paper: "ranging around 18 degrees".
	if spread > 45 {
		t.Errorf("phase difference spread = %v°, want tight (~18°)", spread)
	}
	if spread < 2 {
		t.Errorf("phase difference spread = %v°, implausibly clean", spread)
	}
}

// TestAmplitudeRatioMoreStableThanAmplitude reproduces Fig. 8: the
// inter-antenna amplitude ratio has lower variance than each antenna's
// amplitude because the per-packet gain jitter is common.
func TestAmplitudeRatioMoreStableThanAmplitude(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	profile := DefaultProfile()
	profile.ImpulseProb = 0 // isolate the gain-jitter effect
	profile.OutlierProb = 0
	im, err := NewImperfection(profile, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	var amp0, ratio []float64
	for pkt := 0; pkt < 400; pkt++ {
		m := cleanMatrix(t, 2)
		if err := im.Corrupt(m); err != nil {
			t.Fatal(err)
		}
		a, err := m.Amplitude(0, 12)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.AmplitudeRatio(0, 1, 12)
		if err != nil {
			t.Fatal(err)
		}
		amp0 = append(amp0, a)
		ratio = append(ratio, r)
	}
	// Compare coefficients of variation (scales differ).
	cvAmp := mathx.StdDev(amp0) / mathx.Mean(amp0)
	cvRatio := mathx.StdDev(ratio) / mathx.Mean(ratio)
	if cvRatio >= cvAmp {
		t.Errorf("ratio CV %v not below amplitude CV %v (Fig. 8)", cvRatio, cvAmp)
	}
}

// TestImpulseNoisePresent verifies that impulse events produce amplitude
// excursions comparable to the signal (Fig. 3).
func TestImpulseNoisePresent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	profile := DefaultProfile()
	profile.ImpulseProb = 1 // force impulses
	profile.OutlierProb = 0
	im, err := NewImperfection(profile, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	excursions := 0
	for pkt := 0; pkt < 50; pkt++ {
		m := cleanMatrix(t, 1)
		if err := im.Corrupt(m); err != nil {
			t.Fatal(err)
		}
		for sub := 0; sub < csi.NumSubcarriers; sub++ {
			a, err := m.Amplitude(0, sub)
			if err != nil {
				t.Fatal(err)
			}
			if a > 1.5 { // clean amplitude ≈ 1 ± gain jitter
				excursions++
			}
		}
	}
	if excursions == 0 {
		t.Error("forced impulses produced no amplitude excursions")
	}
}

func TestOutliersExceed3Sigma(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	profile := DefaultProfile()
	profile.ImpulseProb = 0
	profile.OutlierProb = 0.05
	im, err := NewImperfection(profile, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	var amps []float64
	for pkt := 0; pkt < 600; pkt++ {
		m := cleanMatrix(t, 1)
		if err := im.Corrupt(m); err != nil {
			t.Fatal(err)
		}
		a, err := m.Amplitude(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		amps = append(amps, a)
	}
	// With 5% outliers at 4x magnitude, some samples must sit outside
	// mean ± 3·(robust sigma).
	med, sigma := mathx.MedianAndMADStdDev(amps)
	count := 0
	for _, a := range amps {
		if math.Abs(a-med) > 3*sigma {
			count++
		}
	}
	if count < 5 {
		t.Errorf("only %d outliers beyond 3σ, expected plenty", count)
	}
}

func TestQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	profile := DefaultProfile()
	profile.QuantBits = 8
	profile.ImpulseProb = 0
	profile.OutlierProb = 0
	im, err := NewImperfection(profile, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := cleanMatrix(t, 1)
	if err := im.Corrupt(m); err != nil {
		t.Fatal(err)
	}
	// After quantisation all I/Q values are integer multiples of the grid
	// step. Recover the step from the peak.
	var peak float64
	for _, v := range m.Values[0] {
		if a := math.Abs(real(v)); a > peak {
			peak = a
		}
		if a := math.Abs(imag(v)); a > peak {
			peak = a
		}
	}
	step := peak / 127
	for _, v := range m.Values[0] {
		for _, comp := range []float64{real(v), imag(v)} {
			q := comp / step
			if math.Abs(q-math.Round(q)) > 1e-6 {
				t.Fatalf("component %v not on the quantisation grid (step %v)", comp, step)
			}
		}
	}
}

func TestQuantizeZeroMatrix(t *testing.T) {
	m, err := csi.NewMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	quantize(m, 8) // must not divide by zero
	if m.Values[0][0] != 0 {
		t.Error("zero matrix should stay zero")
	}
}
