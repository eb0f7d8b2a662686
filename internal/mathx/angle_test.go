package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWrapAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi / 2, math.Pi / 2},
		{math.Pi, -math.Pi}, // boundary folds to -π (half-open interval)
		{-math.Pi, -math.Pi},
		{3 * math.Pi, -math.Pi},
		{2 * math.Pi, 0},
		{-3 * math.Pi / 2, math.Pi / 2},
	}
	for _, tt := range tests {
		if got := WrapAngle(tt.in); !AlmostEqual(got, tt.want, 1e-12) {
			t.Errorf("WrapAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestWrapAngleRangeProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 1e6)
		w := WrapAngle(a)
		if w < -math.Pi || w >= math.Pi {
			return false
		}
		// Same angle modulo 2π.
		d := math.Mod(a-w, 2*math.Pi)
		return math.Abs(math.Remainder(d, 2*math.Pi)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	// Difference across the wrap boundary is small, not ~2π.
	a := math.Pi - 0.1
	b := -math.Pi + 0.1
	if got := AngleDiff(a, b); !AlmostEqual(got, -0.2, 1e-9) {
		t.Errorf("AngleDiff across boundary = %v, want -0.2", got)
	}
}

func TestCircularMean(t *testing.T) {
	// Angles clustered around the wrap boundary average correctly.
	angles := []float64{math.Pi - 0.1, -math.Pi + 0.1}
	got := CircularMean(angles)
	if !AlmostEqual(math.Abs(got), math.Pi, 1e-9) {
		t.Errorf("CircularMean near boundary = %v, want ±π", got)
	}
	// Simple cluster.
	got = CircularMean([]float64{0.1, 0.2, 0.3})
	if !AlmostEqual(got, 0.2, 1e-9) {
		t.Errorf("CircularMean = %v, want 0.2", got)
	}
	if !math.IsNaN(CircularMean(nil)) {
		t.Error("CircularMean(nil) should be NaN")
	}
	// Balanced phasors cancel → NaN.
	if !math.IsNaN(CircularMean([]float64{0, math.Pi})) {
		t.Error("CircularMean of opposed phasors should be NaN")
	}
}

func TestAngularSpreadDeg(t *testing.T) {
	// A tight cluster has a small spread.
	cluster := []float64{0.0, 0.05, -0.05, 0.02, -0.02, 0.04, -0.04, 0.01, -0.01, 0.03}
	if got := AngularSpreadDeg(cluster); got > 10 {
		t.Errorf("tight cluster spread = %v°, want < 10°", got)
	}
	// Uniform angles span (nearly) the whole circle.
	n := 720
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 2 * math.Pi * float64(i) / float64(n)
	}
	if got := AngularSpreadDeg(uniform); got < 300 {
		t.Errorf("uniform spread = %v°, want ≈324-360°", got)
	}
}

func TestAngularSpreadClusterVsUniformOrdering(t *testing.T) {
	// The paper's Fig. 2/12 claim in miniature: clustered phase differences
	// must report a far smaller spread than raw uniform phase.
	rng := rand.New(rand.NewSource(3))
	clustered := make([]float64, 200)
	uniform := make([]float64, 200)
	for i := range clustered {
		clustered[i] = 1.0 + rng.NormFloat64()*5*math.Pi/180
		uniform[i] = rng.Float64() * 2 * math.Pi
	}
	c := AngularSpreadDeg(clustered)
	u := AngularSpreadDeg(uniform)
	if c >= u/5 {
		t.Errorf("clustered spread %v° not ≪ uniform spread %v°", c, u)
	}
}

func TestUnwrapAngles(t *testing.T) {
	// A continuously increasing phase that wraps should unwrap to a ramp.
	n := 100
	in := make([]float64, n)
	for i := range in {
		in[i] = WrapAngle(0.3 * float64(i))
	}
	out := UnwrapAngles(in)
	for i := range out {
		want := 0.3 * float64(i)
		// Unwrap preserves the initial wrapped value as origin.
		want = WrapAngle(in[0]) + 0.3*float64(i) - 0.3*0
		if !AlmostEqual(out[i], want, 1e-9) {
			t.Fatalf("UnwrapAngles[%d] = %v, want %v", i, out[i], want)
		}
	}
	if got := UnwrapAngles(nil); len(got) != 0 {
		t.Error("UnwrapAngles(nil) should be empty")
	}
}
