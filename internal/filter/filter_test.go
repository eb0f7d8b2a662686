package filter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestMedianRemovesSpike(t *testing.T) {
	x := []float64{1, 1, 1, 10, 1, 1, 1}
	out, err := Median(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 1 {
			t.Errorf("out[%d] = %v, want 1", i, v)
		}
	}
}

func TestMedianWindowValidation(t *testing.T) {
	if _, err := Median([]float64{1}, 2); err == nil {
		t.Error("even window should error")
	}
	if _, err := Median([]float64{1}, 0); err == nil {
		t.Error("zero window should error")
	}
	out, err := Median([]float64{3, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{3, 1, 2} {
		if out[i] != v {
			t.Error("window 1 should be identity")
		}
	}
}

func TestMedianPreservesLength(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		out, err := Median(xs, 5)
		return err == nil && len(out) == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	x := []float64{5, 1, 9, 2}
	if _, err := Median(x, 3); err != nil {
		t.Fatal(err)
	}
	if x[0] != 5 || x[2] != 9 {
		t.Error("input mutated")
	}
}

func TestSlideAveragesConstant(t *testing.T) {
	x := []float64{2, 2, 2, 2, 2}
	out, err := Slide(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 2 {
			t.Errorf("constant input should survive, got %v", out)
		}
	}
}

func TestSlideKnownValues(t *testing.T) {
	x := []float64{0, 3, 6}
	out, err := Slide(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 3, 4.5} // edges shrink the window
	for i := range want {
		if !mathx.AlmostEqual(out[i], want[i], 1e-12) {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestSlideValidation(t *testing.T) {
	if _, err := Slide([]float64{1}, 0); err == nil {
		t.Error("zero window should error")
	}
}

func TestSlideReducesGaussianVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	out, err := Slide(x, 9)
	if err != nil {
		t.Fatal(err)
	}
	if vo, vx := mathx.Variance(out), mathx.Variance(x); vo > vx/4 {
		t.Errorf("window-9 average variance %v vs raw %v: expected ≈ 9x reduction", vo, vx)
	}
}

func TestRejectOutliers3Sigma(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 200)
	for i := range x {
		x[i] = 10 + rng.NormFloat64()*0.5
	}
	x[50] = 100 // blatant outlier
	x[120] = -80
	cleaned, mask := RejectOutliers3Sigma(x)
	if !mask[50] || !mask[120] {
		t.Fatal("outliers not flagged")
	}
	if math.Abs(cleaned[50]-10) > 2 || math.Abs(cleaned[120]-10) > 2 {
		t.Errorf("outliers not replaced near baseline: %v, %v", cleaned[50], cleaned[120])
	}
	// Inliers untouched.
	for i := range x {
		if !mask[i] && cleaned[i] != x[i] {
			t.Errorf("inlier %d modified", i)
		}
	}
}

func TestRejectOutliersEmptyAndConstant(t *testing.T) {
	cleaned, mask := RejectOutliers3Sigma(nil)
	if len(cleaned) != 0 || len(mask) != 0 {
		t.Error("empty input should produce empty output")
	}
	// Constant data: sigma 0, nothing outside [mu, mu].
	cleaned, mask = RejectOutliers3Sigma([]float64{4, 4, 4})
	for i := range mask {
		if mask[i] || cleaned[i] != 4 {
			t.Error("constant data should have no outliers")
		}
	}
}
