package dwt

// DenoiseConfig parameterises the spatially-selective wavelet-correlation
// denoiser of paper Sec. III-C.
type DenoiseConfig struct {
	// Wavelet is the mother wavelet; the paper does not name one, DB4 is the
	// default (and the ablation bench sweeps the alternatives).
	Wavelet *Wavelet
	// Level is the decomposition depth. Impulse noise lives at fine scales,
	// so <= 0 selects min(3, MaxLevel) — deep enough to catch impulses
	// without touching the smooth-signal scales.
	Level int
	// MaxIterations bounds the suppress-and-recompute loop per scale
	// ("repeat the aforementioned process until PW is below the noise
	// threshold"). Zero selects the default of 20.
	MaxIterations int
}

func (c *DenoiseConfig) withDefaults() DenoiseConfig {
	out := DenoiseConfig{Wavelet: DB4, Level: 0, MaxIterations: 20}
	if c == nil {
		return out
	}
	if c.Wavelet != nil {
		out.Wavelet = c.Wavelet
	}
	if c.Level > 0 {
		out.Level = c.Level
	}
	if c.MaxIterations > 0 {
		out.MaxIterations = c.MaxIterations
	}
	return out
}

// CorrelationDenoise removes impulse noise from x using the paper's method:
// multiply wavelet detail coefficients of adjacent scales (Eq. 11),
// normalise to the band power (Eq. 12), and apply Eq. 13 — a coefficient
// whose normalised cross-scale correlation exceeds its own magnitude is
// impulse-dominated (impulses, unlike the smooth useful signal, concentrate
// in detail bands and propagate across scales at the same location) and is
// zeroed, while the rest are kept. The process repeats until the band power
// falls to the robust-median noise floor [24]. The denoised signal is
// rebuilt with the inverse transform.
//
// The input is not mutated. Signals too short to decompose are returned
// unchanged (copied): there is nothing to denoise at that length.
//
// The robust per-band noise scale follows reference [24]: sigma_l =
// MAD(W_l)/0.6745. MAD ignores sparse impulses, so an impulse-inflated
// band keeps a low threshold (and gets filtered), while a band carrying
// dense genuine signal estimates a threshold at or above its own power
// (and is left alone).
//
// Safe for concurrent use: each call borrows a private Workspace from a
// shared pool, so the per-level buffers are reused across calls instead of
// reallocated.
func CorrelationDenoise(x []float64, cfg *DenoiseConfig) ([]float64, error) {
	ws := wsPool.Get().(*Workspace)
	out, err := ws.Denoise(x, cfg)
	wsPool.Put(ws)
	return out, err
}

func sumSquares(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return s
}
