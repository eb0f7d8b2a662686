// Package filter implements the classical smoothing filters WiMi is
// compared against in Fig. 7 — median, sliding-window (slide) and
// Butterworth — plus the 3σ outlier rejection of Sec. III-C.
//
// All filters are pure functions over float64 slices: inputs are never
// mutated and outputs always have the input length.
package filter

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
)

// Median applies a sliding median filter of the given odd window length.
// Edges are handled by shrinking the window symmetrically. window must be
// odd and >= 1; otherwise an error is returned.
func Median(x []float64, window int) ([]float64, error) {
	if window < 1 || window%2 == 0 {
		return nil, fmt.Errorf("filter: median window must be odd and >= 1, got %d", window)
	}
	out := make([]float64, len(x))
	half := window / 2
	buf := make([]float64, 0, window)
	for i := range x {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(x) {
			hi = len(x) - 1
		}
		buf = append(buf[:0], x[lo:hi+1]...)
		sort.Float64s(buf)
		out[i] = buf[len(buf)/2]
	}
	return out, nil
}

// Slide applies a sliding-window moving average ("slide filter" in the
// paper's Fig. 7) of the given window length. Edges shrink the window.
// window must be >= 1.
func Slide(x []float64, window int) ([]float64, error) {
	if window < 1 {
		return nil, fmt.Errorf("filter: slide window must be >= 1, got %d", window)
	}
	out := make([]float64, len(x))
	half := window / 2
	for i := range x {
		lo, hi := i-half, i+half
		if window%2 == 0 {
			hi = i + half - 1
		}
		if lo < 0 {
			lo = 0
		}
		if hi >= len(x) {
			hi = len(x) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += x[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out, nil
}

// RejectOutliers3Sigma implements the paper's first denoising step: compute
// the mean and standard deviation of x and replace every sample outside
// [mu-3sigma, mu+3sigma] with the mean of its in-range neighbours (the paper
// "filters out" outliers; replacing rather than deleting keeps the series
// aligned with packet indices). The returned mask reports which samples were
// treated as outliers.
func RejectOutliers3Sigma(x []float64) (cleaned []float64, outliers []bool) {
	return RejectOutliers3SigmaInto(nil, nil, x)
}

// RejectOutliers3SigmaInto is RejectOutliers3Sigma with caller-owned output
// buffers: dst and mask are grown as needed, filled and returned, so the
// per-series denoising hot path reuses them instead of allocating two
// slices per call. Either may be nil; the values are identical to
// RejectOutliers3Sigma. dst must not alias x.
func RejectOutliers3SigmaInto(dst []float64, mask []bool, x []float64) (cleaned []float64, outliers []bool) {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	cleaned = dst[:len(x)]
	copy(cleaned, x)
	if cap(mask) < len(x) {
		mask = make([]bool, len(x))
	}
	outliers = mask[:len(x)]
	for i := range outliers {
		outliers[i] = false
	}
	if len(x) == 0 {
		return cleaned, outliers
	}
	// mathx.StdDev's arithmetic, on the mean computed once.
	mu := mathx.Mean(x)
	var ss float64
	for _, v := range x {
		d := v - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(x)))
	lo, hi := mu-3*sigma, mu+3*sigma
	for i, v := range x {
		if v < lo || v > hi {
			outliers[i] = true
		}
	}
	for i := range x {
		if !outliers[i] {
			continue
		}
		cleaned[i] = nearestInlierMean(x, outliers, i)
	}
	return cleaned, outliers
}

// nearestInlierMean averages the closest in-range neighbour on each side of
// index i, falling back to the global mean when no inlier exists.
func nearestInlierMean(x []float64, outliers []bool, i int) float64 {
	var sum float64
	var n int
	for j := i - 1; j >= 0; j-- {
		if !outliers[j] {
			sum += x[j]
			n++
			break
		}
	}
	for j := i + 1; j < len(x); j++ {
		if !outliers[j] {
			sum += x[j]
			n++
			break
		}
	}
	if n == 0 {
		return mathx.Mean(x)
	}
	// Summed in the same order mathx.Mean walked the old slice, so the
	// replacement value is bit-identical.
	return sum / float64(n)
}
