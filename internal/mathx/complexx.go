package mathx

import "math/cmplx"

// Phases returns the argument of every element of zs in radians.
func Phases(zs []complex128) []float64 {
	out := make([]float64, len(zs))
	for i, z := range zs {
		out[i] = cmplx.Phase(z)
	}
	return out
}
