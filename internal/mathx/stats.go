// Package mathx provides the scalar, vector and circular statistics
// primitives shared by every other WiMi package.
//
// All functions operate on float64 slices, never mutate their inputs unless
// the name says so (e.g. SortInPlace), and define their behaviour for empty
// input explicitly: reductions over empty slices return NaN so that callers
// cannot silently mistake "no data" for a real value.
package mathx

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by N, matching
// Eq. 7 of the paper), or NaN when xs is empty.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	mu := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - mu
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// floatLess orders float64s the way sort.Float64s does: NaN sorts before
// every other value, otherwise the usual <.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// floatKey maps a non-NaN float64 to a uint64 whose unsigned order is the
// float's numeric order: negative values flip every bit, the rest only the
// sign bit. −0 keys just below +0, so ties between the two zeros resolve the
// same way whatever the arrangement.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// kthInPlace rearranges xs so xs[k] holds its k-th smallest element (0-based,
// sort.Float64s order) and everything before index k orders no later than it.
// Quickselect with median-of-three pivots: average O(n), versus the O(n log n)
// full sort the median used to pay on every call of the denoising hot loop.
//
// NaN-free input (the overwhelmingly common case) partitions without a
// data-dependent branch: each element's floatKey is compared with the
// pivot's by the borrow of bits.Sub64, and the borrow advances the store
// index, so real data cannot mispredict the loop the way a float compare
// does on about half its elements. Keys equal to the pivot's go left on
// every other index, so runs of duplicates still split the range; a depth
// budget sorts whatever range an adversarial arrangement or a run of bad
// pivots leaves. Exact selection returns the same order statistic as any
// other, so the value never depends on the algorithm.
func kthInPlace(xs []float64, k int) float64 {
	for _, v := range xs {
		if v != v {
			return kthInPlaceNaN(xs, k)
		}
	}
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if budget == 0 {
			// Sort by key, not with sort.Float64s: that treats −0 and +0
			// as equal, so which zero lands at k would depend on the
			// arrangement.
			slices.SortFunc(xs[lo:hi+1], func(a, b float64) int {
				return cmp.Compare(floatKey(a), floatKey(b))
			})
			break
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		// Park the median of three at hi and partition [lo, hi) around it:
		// afterwards xs[lo:store] orders no later than the pivot and
		// xs[store:hi] no earlier.
		pivot := xs[mid]
		xs[mid], xs[hi] = xs[hi], pivot
		pk := floatKey(pivot)
		store := lo
		var flip uint64
		for i := lo; i < hi; i++ {
			v := xs[i]
			// The borrow is 1 when v's key is below pk+flip: always for keys
			// below the pivot's, never above it, and on every other
			// element for keys equal to it. pk+1 cannot overflow: the
			// largest non-NaN key, +Inf's, is far below MaxUint64.
			_, take := bits.Sub64(floatKey(v), pk+flip, 0)
			xs[i] = xs[store]
			xs[store] = v
			store += int(take)
			flip ^= 1
		}
		xs[hi] = xs[store]
		xs[store] = pivot
		switch {
		case k < store:
			hi = store - 1
		case k > store:
			lo = store + 1
		default:
			return pivot
		}
	}
	return xs[k]
}

// kthInPlaceNaN is kthInPlace for slices containing NaN, using the full
// sort.Float64s ordering (NaN before everything).
func kthInPlaceNaN(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot to dodge quadratic behaviour on sorted runs.
		mid := lo + (hi-lo)/2
		if floatLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if floatLess(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if floatLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition: afterwards xs[lo..j] ≼ pivot ≼ xs[j+1..hi].
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if !floatLess(xs[i], pivot) {
					break
				}
			}
			for {
				j--
				if !floatLess(pivot, xs[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return xs[k]
}

// medianInPlace returns the median of buf, scrambling buf in the process.
func medianInPlace(buf []float64) float64 {
	n := len(buf)
	if n == 0 {
		return math.NaN()
	}
	hi := kthInPlace(buf, n/2)
	if n%2 == 1 {
		return hi
	}
	// kthInPlace leaves the lower half before index n/2; its maximum is the
	// other middle order statistic.
	lo := buf[0]
	for _, v := range buf[1 : n/2] {
		if floatLess(lo, v) {
			lo = v
		}
	}
	// Halve before adding so the midpoint of two near-MaxFloat64 values
	// cannot overflow to infinity.
	return lo/2 + hi/2
}

// Median returns the median of xs without mutating it, or NaN when empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), xs...)
	return medianInPlace(tmp)
}

// MedianBuf is Median with a caller-owned scratch buffer, for hot loops
// that would otherwise allocate a copy per call. buf is grown as needed and
// returned for reuse; xs is not mutated. The value is identical to Median.
func MedianBuf(xs, buf []float64) (med float64, scratch []float64) {
	if len(xs) == 0 {
		return math.NaN(), buf
	}
	if cap(buf) < len(xs) {
		buf = make([]float64, len(xs))
	}
	tmp := buf[:len(xs)]
	copy(tmp, xs)
	return medianInPlace(tmp), buf
}

// MedianAndMADStdDev returns Median(xs) and the median absolute deviation
// MAD = median(|x − median(x)|) divided by Φ⁻¹(3/4) ≈ 0.6745, a consistent
// estimator of the Gaussian standard deviation, computing the shared
// median once — the robust location/scale pair every filtering stage asks
// for (robust median estimation, reference [24] of the paper).
func MedianAndMADStdDev(xs []float64) (med, sigma float64) {
	med, sigma, _ = MedianAndMADStdDevBuf(xs, nil)
	return med, sigma
}

// MedianAndMADStdDevBuf is MedianAndMADStdDev with a caller-owned scratch
// buffer for the rolling-window hot paths that would otherwise allocate per
// window. buf is grown as needed and returned for reuse; xs is not mutated.
func MedianAndMADStdDevBuf(xs, buf []float64) (med, sigma float64, scratch []float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), buf
	}
	if cap(buf) < len(xs) {
		buf = make([]float64, len(xs))
	}
	tmp := buf[:len(xs)]
	copy(tmp, xs)
	med = medianInPlace(tmp)
	for i, x := range xs {
		tmp[i] = math.Abs(x - med)
	}
	return med, medianInPlace(tmp) / 0.6745, buf
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. Returns NaN for empty input or p
// outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if n == 1 {
		return tmp[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return tmp[lo]
	}
	frac := rank - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// Min returns the minimum of xs, or NaN when empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN when empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// argLess is the order ArgSort and ArgSortBuf share: the usual < between
// numbers, every NaN after every number, NaNs tied with one another. It is
// a strict weak order, so a stable sort under it is well defined.
func argLess(a, b float64) bool {
	return a < b || (b != b && a == a)
}

// ArgSort returns the permutation that sorts xs ascending, NaNs last. xs is
// not mutated; ties, NaNs among them, keep their original relative order
// (stable).
func ArgSort(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return argLess(xs[idx[a]], xs[idx[b]]) })
	return idx
}

// ArgSortBuf is ArgSort with a caller-owned index buffer: idx is grown as
// needed, filled with the stable-sort permutation and returned. The
// permutation is identical to ArgSort's (both are stable under argLess),
// but the insertion sort used here allocates nothing — sized for the short
// fixed-length vectors (e.g. 30 subcarrier variances) of the hot path.
func ArgSortBuf(xs []float64, idx []int) []int {
	if cap(idx) < len(xs) {
		idx = make([]int, len(xs))
	}
	idx = idx[:len(xs)]
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && argLess(xs[v], xs[idx[j]]) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
	return idx
}

// Power returns the mean squared value of xs (signal power), or NaN when
// empty.
func Power(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return s / float64(len(xs))
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AlmostEqual reports whether a and b differ by at most tol in absolute
// terms, or by at most tol relative to the larger magnitude. NaNs are never
// equal; equal infinities are.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
