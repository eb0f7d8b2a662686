package mathx

import "math"

// WrapAngle maps an angle in radians to the half-open interval [-π, π).
func WrapAngle(a float64) float64 {
	// math.Remainder maps to [-π, π] with ties toward even quotients;
	// normalise the single boundary case so the interval is half-open.
	w := math.Remainder(a, 2*math.Pi)
	if w >= math.Pi {
		w -= 2 * math.Pi
	}
	if w < -math.Pi {
		w += 2 * math.Pi
	}
	return w
}

// AngleDiff returns the signed minimal difference a-b wrapped to [-π, π).
func AngleDiff(a, b float64) float64 {
	return WrapAngle(a - b)
}

// CircularMean returns the circular mean of the angles (radians), i.e. the
// argument of the mean unit phasor. Returns NaN for empty input or when the
// resultant vector length is (numerically) zero.
func CircularMean(angles []float64) float64 {
	if len(angles) == 0 {
		return math.NaN()
	}
	var sx, sy float64
	for _, a := range angles {
		s, c := math.Sincos(a)
		sx += c
		sy += s
	}
	if math.Hypot(sx, sy) < 1e-12 {
		return math.NaN()
	}
	return math.Atan2(sy, sx)
}

// AngularSpreadDeg returns the full angular fluctuation of the angles in
// degrees, measured as the 5th-to-95th percentile span of deviations from
// the circular mean. This is the "angular fluctuation is around 18 degrees"
// metric the paper reports in Figs. 2 and 12.
func AngularSpreadDeg(angles []float64) float64 {
	if len(angles) == 0 {
		return math.NaN()
	}
	mu := CircularMean(angles)
	if math.IsNaN(mu) {
		// Perfectly balanced phasors (e.g. uniform): report full circle.
		return 360
	}
	dev := make([]float64, len(angles))
	for i, a := range angles {
		dev[i] = AngleDiff(a, mu)
	}
	span := Percentile(dev, 95) - Percentile(dev, 5)
	return span * 180 / math.Pi
}

// UnwrapAngles removes 2π jumps from a sequence of angles, returning a
// continuous phase track (like numpy.unwrap).
func UnwrapAngles(angles []float64) []float64 {
	out := make([]float64, len(angles))
	if len(angles) == 0 {
		return out
	}
	out[0] = angles[0]
	for i := 1; i < len(angles); i++ {
		d := WrapAngle(angles[i] - angles[i-1])
		out[i] = out[i-1] + d
	}
	return out
}
