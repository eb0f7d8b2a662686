package csi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mathx"
)

func TestSubcarrierIndexMapping(t *testing.T) {
	// Endpoints and the DC gap of the Intel 5300 grouping.
	first, err := SubcarrierIndex(0)
	if err != nil || first != -28 {
		t.Errorf("index 0 = %d (%v), want -28", first, err)
	}
	last, err := SubcarrierIndex(29)
	if err != nil || last != 28 {
		t.Errorf("index 29 = %d (%v), want 28", last, err)
	}
	// No DC subcarrier.
	for k := 0; k < NumSubcarriers; k++ {
		idx, err := SubcarrierIndex(k)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 {
			t.Error("DC subcarrier should not be reported")
		}
	}
	if _, err := SubcarrierIndex(-1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := SubcarrierIndex(30); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestSubcarrierIndicesStrictlyIncreasing(t *testing.T) {
	prev := math.Inf(-1)
	for k := 0; k < NumSubcarriers; k++ {
		idx, _ := SubcarrierIndex(k)
		if float64(idx) <= prev {
			t.Fatalf("indices not strictly increasing at %d", k)
		}
		prev = float64(idx)
	}
}

func TestSubcarrierFreq(t *testing.T) {
	carrier := 5.32e9
	f0, err := SubcarrierFreq(carrier, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := carrier - 28*SubcarrierSpacing
	if !mathx.AlmostEqual(f0, want, 1e-3) {
		t.Errorf("subcarrier 0 freq = %v, want %v", f0, want)
	}
	// Span of the reported band is 56 × 312.5 kHz = 17.5 MHz.
	f29, _ := SubcarrierFreq(carrier, 29)
	if !mathx.AlmostEqual(f29-f0, 56*SubcarrierSpacing, 1e-3) {
		t.Errorf("band span = %v", f29-f0)
	}
}

func TestNewMatrix(t *testing.T) {
	m, err := NewMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAntennas() != 3 {
		t.Errorf("NumAntennas = %d", m.NumAntennas())
	}
	if len(m.Values[0]) != NumSubcarriers {
		t.Errorf("subcarriers = %d", len(m.Values[0]))
	}
	if _, err := NewMatrix(0); err == nil {
		t.Error("0 antennas should error")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m, _ := NewMatrix(2)
	m.Values[0][5] = cmplx.Rect(2, 0.7)
	m.Values[1][5] = cmplx.Rect(4, 0.2)

	if amp, err := m.Amplitude(0, 5); err != nil || !mathx.AlmostEqual(amp, 2, 1e-12) {
		t.Errorf("Amplitude = %v (%v)", amp, err)
	}
	if ph, err := m.Phase(0, 5); err != nil || !mathx.AlmostEqual(ph, 0.7, 1e-12) {
		t.Errorf("Phase = %v (%v)", ph, err)
	}
	if d, err := m.PhaseDiff(0, 1, 5); err != nil || !mathx.AlmostEqual(d, 0.5, 1e-12) {
		t.Errorf("PhaseDiff = %v (%v)", d, err)
	}
	if r, err := m.AmplitudeRatio(0, 1, 5); err != nil || !mathx.AlmostEqual(r, 0.5, 1e-12) {
		t.Errorf("AmplitudeRatio = %v (%v)", r, err)
	}
}

func TestMatrixBoundsErrors(t *testing.T) {
	m, _ := NewMatrix(2)
	if _, err := m.At(2, 0); err == nil {
		t.Error("antenna out of range should error")
	}
	if _, err := m.At(0, NumSubcarriers); err == nil {
		t.Error("subcarrier out of range should error")
	}
	if _, err := m.AmplitudeRatio(0, 1, 3); err == nil {
		t.Error("zero denominator should error")
	}
}

func TestPhaseDiffWraps(t *testing.T) {
	m, _ := NewMatrix(2)
	m.Values[0][0] = cmplx.Rect(1, 3.0)
	m.Values[1][0] = cmplx.Rect(1, -3.0)
	d, err := m.PhaseDiff(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3 − (−3) = 6 → wraps to 6 − 2π ≈ −0.283.
	if !mathx.AlmostEqual(d, 6-2*math.Pi, 1e-9) {
		t.Errorf("wrapped phase diff = %v, want %v", d, 6-2*math.Pi)
	}
	if d < -math.Pi || d >= math.Pi {
		t.Errorf("phase diff %v outside [-π, π)", d)
	}
}

func TestMatrixClone(t *testing.T) {
	m, _ := NewMatrix(2)
	m.Values[0][0] = 1 + 2i
	c := m.Clone()
	c.Values[0][0] = 9
	if m.Values[0][0] != 1+2i {
		t.Error("Clone aliases the original")
	}
}

func makeCapture(t *testing.T, n int, phase0, phase1 float64) Capture {
	t.Helper()
	var cap Capture
	for i := 0; i < n; i++ {
		m, err := NewMatrix(2)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < NumSubcarriers; s++ {
			m.Values[0][s] = cmplx.Rect(2, phase0)
			m.Values[1][s] = cmplx.Rect(1, phase1)
		}
		cap.Packets = append(cap.Packets, Packet{
			Seq:       uint32(i),
			Timestamp: time.Unix(0, int64(i)*10_000_000), // 10 ms apart
			Carrier:   5.32e9,
			CSI:       m,
		})
	}
	return cap
}

func TestCaptureSeries(t *testing.T) {
	cap := makeCapture(t, 5, 1.0, 0.25)
	pd, err := cap.PhaseDiffSeries(0, 1, 7)
	if err != nil || len(pd) != 5 {
		t.Fatalf("PhaseDiffSeries: %v len %d", err, len(pd))
	}
	for _, v := range pd {
		if !mathx.AlmostEqual(v, 0.75, 1e-12) {
			t.Errorf("phase diff = %v, want 0.75", v)
		}
	}
	amps, err := cap.AmplitudeSeries(0, 7)
	if err != nil || len(amps) != 5 {
		t.Fatalf("AmplitudeSeries: %v", err)
	}
	for _, v := range amps {
		if v != 2 {
			t.Errorf("amplitude = %v", v)
		}
	}
	ratios, err := cap.AmplitudeRatioSeries(0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ratios {
		if v != 2 {
			t.Errorf("ratio = %v", v)
		}
	}
	phases, err := cap.PhaseSeries(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range phases {
		if !mathx.AlmostEqual(v, 0.25, 1e-12) {
			t.Errorf("phase = %v", v)
		}
	}
}

func TestCaptureNumAntennas(t *testing.T) {
	var empty Capture
	if empty.NumAntennas() != 0 {
		t.Error("empty capture should report 0 antennas")
	}
	cap := makeCapture(t, 1, 0, 0)
	if cap.NumAntennas() != 2 {
		t.Errorf("NumAntennas = %d", cap.NumAntennas())
	}
}

func TestSessionValidate(t *testing.T) {
	good := &Session{
		Carrier:  5.32e9,
		Baseline: makeCapture(t, 3, 0, 0),
		Target:   makeCapture(t, 3, 1, 1),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid session rejected: %v", err)
	}

	noBase := &Session{Carrier: 5.32e9, Target: makeCapture(t, 3, 0, 0)}
	if err := noBase.Validate(); err == nil {
		t.Error("missing baseline should error")
	}
	noTarget := &Session{Carrier: 5.32e9, Baseline: makeCapture(t, 3, 0, 0)}
	if err := noTarget.Validate(); err == nil {
		t.Error("missing target should error")
	}
	badCarrier := &Session{Baseline: makeCapture(t, 1, 0, 0), Target: makeCapture(t, 1, 0, 0)}
	if err := badCarrier.Validate(); err == nil {
		t.Error("zero carrier should error")
	}
}

// TestSessionValidateCarrier pins that a session needs a finite, positive
// carrier: NaN and +Inf fail like zero and negatives, with the same text.
func TestSessionValidateCarrier(t *testing.T) {
	for _, tc := range []struct {
		carrier float64
		err     string
	}{
		{5.32e9, ""},
		{0, "csi: invalid carrier frequency 0"},
		{-1, "csi: invalid carrier frequency -1"},
		{math.NaN(), "csi: invalid carrier frequency NaN"},
		{math.Inf(1), "csi: invalid carrier frequency +Inf"},
		{math.Inf(-1), "csi: invalid carrier frequency -Inf"},
	} {
		s := &Session{Carrier: tc.carrier, Baseline: makeCapture(t, 3, 0, 0), Target: makeCapture(t, 3, 1, 1)}
		if err := s.Validate(); (err == nil) != (tc.err == "") || (err != nil && err.Error() != tc.err) {
			t.Errorf("carrier %v: Validate() = %v, want %q", tc.carrier, err, tc.err)
		}
	}
}

func TestSessionValidateSingleAntenna(t *testing.T) {
	one := func(n int) Capture {
		var cap Capture
		for i := 0; i < n; i++ {
			m, _ := NewMatrix(1)
			cap.Packets = append(cap.Packets, Packet{CSI: m, Carrier: 5.32e9})
		}
		return cap
	}
	s := &Session{Carrier: 5.32e9, Baseline: one(2), Target: one(2)}
	if err := s.Validate(); err == nil {
		t.Error("single-antenna session should be rejected (phase difference needs 2)")
	}
}

func TestPhaseDiffAntisymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, err := NewMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	for ant := 0; ant < 3; ant++ {
		for sub := 0; sub < NumSubcarriers; sub++ {
			m.Values[ant][sub] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	for sub := 0; sub < NumSubcarriers; sub++ {
		ab, err := m.PhaseDiff(0, 1, sub)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := m.PhaseDiff(1, 0, sub)
		if err != nil {
			t.Fatal(err)
		}
		// ab = -ba modulo 2π.
		sum := math.Mod(ab+ba, 2*math.Pi)
		if math.Abs(sum) > 1e-9 && math.Abs(math.Abs(sum)-2*math.Pi) > 1e-9 {
			t.Fatalf("sub %d: PhaseDiff not antisymmetric: %v + %v", sub, ab, ba)
		}
		rab, err := m.AmplitudeRatio(0, 1, sub)
		if err != nil {
			t.Fatal(err)
		}
		rba, err := m.AmplitudeRatio(1, 0, sub)
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.AlmostEqual(rab*rba, 1, 1e-9) {
			t.Fatalf("sub %d: ratio reciprocity violated: %v · %v", sub, rab, rba)
		}
	}
}

// angleResultant is the angle round trip PhaseDiffResultant replaced: the
// phase-difference series, then each angle's unit phasor from Sincos.
func angleResultant(t *testing.T, c *Capture, antA, antB, sub int) (x, y float64) {
	t.Helper()
	series, err := c.PhaseDiffSeries(antA, antB, sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range series {
		s, co := math.Sincos(d)
		x += co
		y += s
	}
	return x, y
}

// captureOf builds a capture whose packet i holds a[i] at antenna 0 and
// b[i] at antenna 1, subcarrier 0.
func captureOf(t *testing.T, a, b []complex128) *Capture {
	t.Helper()
	c := &Capture{}
	for i := range a {
		m, err := NewMatrix(2)
		if err != nil {
			t.Fatal(err)
		}
		m.Values[0][0], m.Values[1][0] = a[i], b[i]
		c.Packets = append(c.Packets, Packet{Seq: uint32(i), CSI: m})
	}
	return c
}

func TestPhaseResultantMatchesAngles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Finite inputs: the mean (one atan2 of the resultant) and the variance
	// 1 − |R|/n agree with the angle path's to 1e-12, for tight clusters,
	// clusters straddling ±π, wide spreads and tiny or huge magnitudes.
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		centre := (rng.Float64()*2 - 1) * math.Pi
		if trial%5 == 0 {
			centre = math.Pi - 0.01
		}
		spread := []float64{0.01, 0.3, 1.5}[trial%3]
		scale := []float64{1, 1e-150, 1e150}[trial%3]
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := range a {
			pa := centre + spread*rng.NormFloat64()
			pb := 2 * math.Pi * rng.Float64()
			a[i] = cmplx.Rect(scale*(0.5+rng.Float64()), pa+pb)
			b[i] = cmplx.Rect(0.5+rng.Float64(), pb)
		}
		c := captureOf(t, a, b)
		x, y, err := c.PhaseDiffResultant(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		wx, wy := angleResultant(t, c, 0, 1, 0)
		if d := math.Abs(mathx.AngleDiff(math.Atan2(y, x), math.Atan2(wy, wx))); d > 1e-12 {
			t.Fatalf("trial %d: mean differs from the angle path by %v", trial, d)
		}
		v := 1 - math.Hypot(x, y)/float64(n)
		wv := 1 - math.Hypot(wx, wy)/float64(n)
		if math.Abs(v-wv) > 1e-12 {
			t.Fatalf("trial %d: variance %v, angle path %v", trial, v, wv)
		}
	}
	// A zero product keeps the angle path's phasor bit for bit: a +0 real
	// part gives atan2(±0, +0) = ±0, and a −0 one (here an underflow)
	// gives π, folded to −π.
	tiny, negZero := 1e-200, math.Copysign(0, -1)
	for _, tc := range []struct {
		a, b  complex128
		angle float64
	}{
		{0, 1, 0},
		{complex(0, negZero), 1, negZero},
		{complex(tiny, 0), complex(0, tiny), 0},
		{complex(-tiny, 0), complex(tiny, negZero), -math.Pi},
	} {
		c := captureOf(t, []complex128{tc.a}, []complex128{tc.b})
		if d, _ := c.PhaseDiffSeries(0, 1, 0); d[0] != tc.angle {
			t.Fatalf("%v·conj(%v): angle path gives %v, case expects %v", tc.a, tc.b, d[0], tc.angle)
		}
		x, y, err := c.PhaseDiffResultant(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		wx, wy := angleResultant(t, c, 0, 1, 0)
		if math.Float64bits(x) != math.Float64bits(wx) || math.Float64bits(y) != math.Float64bits(wy) {
			t.Errorf("zero product of %v·conj(%v): phasor (%v, %v), angle path (%v, %v)", tc.a, tc.b, x, y, wx, wy)
		}
	}
	// A non-finite product has no phasor: the resultant is NaN.
	for _, v := range []complex128{complex(math.NaN(), 0), complex(math.Inf(1), 0), complex(0, math.Inf(-1))} {
		c := captureOf(t, []complex128{1, v, 1i}, []complex128{1, 1, 1})
		x, y, err := c.PhaseDiffResultant(0, 1, 0)
		if err != nil || !math.IsNaN(x) || !math.IsNaN(y) {
			t.Errorf("%v in the capture: resultant (%v, %v, %v), want NaN", v, x, y, err)
		}
	}
	// Out-of-range arguments fail with PhaseDiffSeries's error.
	c := captureOf(t, []complex128{1, 1}, []complex128{1, 1})
	for _, args := range [][3]int{{0, 2, 0}, {-1, 1, 0}, {0, 1, NumSubcarriers}} {
		_, _, err := c.PhaseDiffResultant(args[0], args[1], args[2])
		_, want := c.PhaseDiffSeries(args[0], args[1], args[2])
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("args %v: error %v, PhaseDiffSeries's %v", args, err, want)
		}
	}
}
