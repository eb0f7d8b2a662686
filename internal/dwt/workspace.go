package dwt

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
)

// Workspace owns the scratch buffers of one wavelet-correlation denoise
// pass — the per-level approximation/detail vectors, the odd-length pad,
// the adjacent-band and correlation scratch and the reconstruction
// ping-pong buffers — so repeated Denoise calls reuse one set of
// allocations instead of rebuilding them level by level.
//
// A Workspace is NOT safe for concurrent use; keep one per goroutine or go
// through CorrelationDenoise, which draws from a shared pool.
type Workspace struct {
	approxes [][]float64 // approximation after each level
	details  [][]float64 // detail band of each level (finest first)
	lengths  []int       // input length at each level, for odd-length trimming
	pad      []float64   // even-length padded copy of an odd working signal
	adj      []float64   // adjacent band resampled onto the current grid
	corr     []float64   // cross-scale correlation scratch
	mad      []float64   // scratch for the per-level MAD noise estimate
	rec      [2][]float64
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// growFloats returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// Denoise runs the spatially-selective wavelet-correlation denoiser (paper
// Sec. III-C, Eqs. 8-13) on x using the workspace's buffers. The returned
// slice is freshly allocated (the caller keeps it); everything intermediate
// is reused across calls. The input is not mutated. Results are identical
// to CorrelationDenoise.
func (ws *Workspace) Denoise(x []float64, cfg *DenoiseConfig) ([]float64, error) {
	return ws.DenoiseInto(nil, x, cfg)
}

// DenoiseInto is Denoise writing the result into dst (grown as needed and
// returned re-sliced to len(x)), so steady-state callers reuse the output
// buffer too and a whole denoise pass allocates nothing. The values are
// identical to Denoise; dst may be nil.
func (ws *Workspace) DenoiseInto(dst, x []float64, cfg *DenoiseConfig) ([]float64, error) {
	dst = growFloats(dst, len(x))
	c := cfg.withDefaults()
	maxLevel := c.Wavelet.MaxLevel(len(x))
	if maxLevel == 0 {
		copy(dst, x)
		return dst, nil
	}
	level := c.Level
	if level == 0 {
		level = maxLevel
		if level > 3 {
			level = 3
		}
	}
	if level > maxLevel {
		return nil, fmt.Errorf("dwt: denoise: level %d exceeds maximum %d for length %d", level, maxLevel, len(x))
	}
	ws.decompose(c.Wavelet, x, level)
	for l := 0; l < level; l++ {
		adj := ws.adjacent(l, level)
		var sigma float64
		_, sigma, ws.mad = mathx.MedianAndMADStdDevBuf(ws.details[l], ws.mad)
		ws.suppress(ws.details[l], adj, sigma, c.MaxIterations)
	}
	rec, err := ws.reconstructInto(c.Wavelet, level)
	if err != nil {
		return nil, err
	}
	copy(dst, rec)
	return dst, nil
}

// decompose fills ws.approxes/details/lengths with a level-deep periodized
// DWT of x, reusing buffers. Matches Wavelet.Decompose numerically.
func (ws *Workspace) decompose(w *Wavelet, x []float64, level int) {
	for len(ws.approxes) < level {
		ws.approxes = append(ws.approxes, nil)
		ws.details = append(ws.details, nil)
	}
	ws.lengths = ws.lengths[:0]
	cur := x
	for i := 0; i < level; i++ {
		n := len(cur)
		ws.lengths = append(ws.lengths, n)
		if n%2 == 1 {
			ws.pad = growFloats(ws.pad, n+1)
			copy(ws.pad, cur)
			ws.pad[n] = cur[n-1]
			cur = ws.pad
			n++
		}
		half := n / 2
		ws.approxes[i] = growFloats(ws.approxes[i], half)
		ws.details[i] = growFloats(ws.details[i], half)
		forwardInto(w, cur, ws.approxes[i], ws.details[i])
		cur = ws.approxes[i]
	}
}

// forwardInto is Wavelet.Forward with caller-provided outputs; x must have
// even length and approx/detail length len(x)/2.
func forwardInto(w *Wavelet, x, approx, detail []float64) {
	n := len(x)
	half := n / 2
	l := len(w.h)
	// Only the last few output samples wrap around the periodic boundary;
	// everything before them indexes x directly, skipping the per-tap modulo.
	direct := (n - l + 2) / 2
	if direct < 0 {
		direct = 0
	}
	if direct > half {
		direct = half
	}
	for k := 0; k < direct; k++ {
		var a, d float64
		win := x[2*k : 2*k+l]
		for m, xi := range win {
			a += w.h[m] * xi
			d += w.g[m] * xi
		}
		approx[k] = a
		detail[k] = d
	}
	for k := direct; k < half; k++ {
		var a, d float64
		for m := 0; m < l; m++ {
			xi := x[(2*k+m)%n]
			a += w.h[m] * xi
			d += w.g[m] * xi
		}
		approx[k] = a
		detail[k] = d
	}
}

// adjacent resamples the band adjacent in scale to detail band l onto band
// l's index grid (same selection rules as the one-shot denoiser: coarser
// neighbour preferred, coarsest falls back to finer, single level to the
// approximation).
func (ws *Workspace) adjacent(l, level int) []float64 {
	n := len(ws.details[l])
	ws.adj = growFloats(ws.adj, n)
	out := ws.adj
	switch {
	case l+1 < level:
		coarser := ws.details[l+1]
		for m := 0; m < n; m++ {
			j := m / 2
			if j >= len(coarser) {
				j = len(coarser) - 1
			}
			out[m] = coarser[j]
		}
	case l > 0:
		finer := ws.details[l-1]
		for m := 0; m < n; m++ {
			a, b := 0.0, 0.0
			if 2*m < len(finer) {
				a = finer[2*m]
			}
			if 2*m+1 < len(finer) {
				b = finer[2*m+1]
			}
			// Keep the stronger of the two children: an impulse lands in
			// only one of them.
			if math.Abs(a) >= math.Abs(b) {
				out[m] = a
			} else {
				out[m] = b
			}
		}
	default:
		approx := ws.approxes[level-1]
		for m := 0; m < n; m++ {
			j := m
			if j >= len(approx) {
				j = len(approx) - 1
			}
			out[m] = approx[j]
		}
	}
	return out
}

// suppress applies Eq. 13 iteratively to one detail band in place: zero the
// coefficients whose normalised cross-scale correlation strictly dominates
// their own magnitude (impulse noise) until the residual band power reaches
// the noise floor or no coefficient qualifies.
func (ws *Workspace) suppress(band, adj []float64, sigma float64, maxIter int) {
	n := len(band)
	ws.corr = growFloats(ws.corr, n)
	corr := ws.corr
	noisePower := float64(n) * sigma * sigma
	for iter := 0; iter < maxIter; iter++ {
		pw := sumSquares(band)
		if pw <= noisePower || pw == 0 {
			break
		}
		// Corr_l = W_l ⊙ W_{l+1} (Eq. 11), and its power PCorr_l.
		var pcorr float64
		for m := 0; m < n; m++ {
			c := band[m] * adj[m]
			corr[m] = c
			pcorr += c * c
		}
		if pcorr == 0 {
			break
		}
		// NCorr_l = Corr_l · sqrt(PW_l / PCorr_l) (Eq. 12).
		scale := math.Sqrt(pw / pcorr)
		suppressed := false
		for m := 0; m < n; m++ {
			if band[m] == 0 {
				continue
			}
			ncorr := corr[m] * scale
			// Eq. 13: impulse-dominated where |NCorr| > |w| (strictly, with
			// a relative guard so exact ties — e.g. a constant-background
			// band — are kept).
			if math.Abs(ncorr) > math.Abs(band[m])*(1+1e-9) {
				band[m] = 0
				suppressed = true
			}
		}
		if !suppressed {
			break
		}
	}
}

// reconstructInto inverts the workspace decomposition, ping-ponging between
// two reusable buffers, and returns a view of the final one — valid only
// until the workspace's next use, so callers copy it out.
func (ws *Workspace) reconstructInto(w *Wavelet, level int) ([]float64, error) {
	cur := ws.approxes[level-1]
	buf := 0
	for i := level - 1; i >= 0; i-- {
		if len(cur) != len(ws.details[i]) {
			return nil, fmt.Errorf("dwt: reconstruct level %d: coefficient length mismatch %d vs %d", i+1, len(cur), len(ws.details[i]))
		}
		n := 2 * len(cur)
		ws.rec[buf] = growFloats(ws.rec[buf], n)
		inverseInto(w, cur, ws.details[i], ws.rec[buf])
		next := ws.rec[buf]
		// Trim the padding added for odd-length inputs at this level.
		if len(next) > ws.lengths[i] {
			next = next[:ws.lengths[i]]
		}
		cur = next
		buf ^= 1
	}
	return cur, nil
}

// inverseInto is Wavelet.Inverse with a caller-provided output of length
// 2·len(approx).
func inverseInto(w *Wavelet, approx, detail, out []float64) {
	n := len(out)
	for i := range out {
		out[i] = 0
	}
	l := len(w.h)
	// Transpose of the (orthonormal) analysis operator. As in forwardInto,
	// only the tail coefficients wrap, so the bulk of the scatter runs with
	// direct indexing; the k-order (and so the accumulation order into each
	// out[i]) is unchanged.
	direct := (n - l + 2) / 2
	if direct < 0 {
		direct = 0
	}
	if direct > len(approx) {
		direct = len(approx)
	}
	for k := 0; k < direct; k++ {
		a, d := approx[k], detail[k]
		win := out[2*k : 2*k+l]
		for m := range win {
			win[m] += w.h[m]*a + w.g[m]*d
		}
	}
	for k := direct; k < len(approx); k++ {
		a, d := approx[k], detail[k]
		for m := 0; m < l; m++ {
			i := (2*k + m) % n
			out[i] += w.h[m]*a + w.g[m]*d
		}
	}
}

// wsPool backs CorrelationDenoise: the denoiser runs on every
// (pair, subcarrier, antenna) series and, since the evaluation harness
// fans captures out across workers, concurrently — each call borrows a
// private workspace.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}
