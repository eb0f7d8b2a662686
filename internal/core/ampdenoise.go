package core

import (
	"fmt"

	"repro/internal/dwt"
	"repro/internal/filter"
)

// DenoiseAmplitudeSeries applies the paper's two-step amplitude cleaning to
// one per-packet amplitude series (Sec. III-C): 3σ outlier rejection
// followed by the wavelet-correlation impulse filter. When cfg disables
// denoising the raw series is returned (copied), which is the "w/o noise
// removed" arm of Fig. 14.
func DenoiseAmplitudeSeries(series []float64, cfg Config) ([]float64, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("core: empty amplitude series")
	}
	if !cfg.DenoiseAmplitude {
		return append([]float64(nil), series...), nil
	}
	cleaned, _ := filter.RejectOutliers3Sigma(series)
	w := cfg.Wavelet
	if w == nil {
		w = dwt.DB4
	}
	out, err := dwt.CorrelationDenoise(cleaned, &dwt.DenoiseConfig{Wavelet: w})
	if err != nil {
		return nil, fmt.Errorf("core: wavelet denoise: %w", err)
	}
	return out, nil
}
