package mathx

import (
	"math"
	"testing"
)

func TestPhasesMagnitudes(t *testing.T) {
	zs := []complex128{1, 1i, -1, -1i, 3 + 4i}
	ph := Phases(zs)
	wantPh := []float64{0, math.Pi / 2, math.Pi, -math.Pi / 2, math.Atan2(4, 3)}
	for i := range wantPh {
		if !AlmostEqual(ph[i], wantPh[i], 1e-12) {
			t.Errorf("Phases[%d] = %v, want %v", i, ph[i], wantPh[i])
		}
	}
}
