package core

import (
	"fmt"
	"math"

	"repro/internal/csi"
	"repro/internal/mathx"
)

// PairFeature is the material evidence extracted from one antenna pair.
type PairFeature struct {
	Pair AntennaPair
	// DeltaTheta is ΔΘ of Eq. 18: the target-vs-baseline change of the
	// inter-antenna phase difference, averaged over good subcarriers
	// (radians, wrapped).
	DeltaTheta float64
	// DeltaPsi is ΔΨ of Eq. 19: the target-vs-baseline change of the
	// inter-antenna amplitude ratio.
	DeltaPsi float64
	// Gamma is the integer phase-cycle count of Eq. 20, estimated from the
	// coarse amplitude reading.
	Gamma int
	// Omega is the material feature Ω̄ of Eq. 21.
	Omega float64
	// PerSubcarrierOmega holds Ω̄ computed at each good subcarrier
	// individually (same order as GoodSubcarriers of the Features struct).
	PerSubcarrierOmega []float64
}

// Features is the pipeline's full output for one measurement session.
type Features struct {
	// GoodSubcarriers are the selected subcarrier indices.
	GoodSubcarriers []int
	// Pairs holds the per-antenna-pair features.
	Pairs []PairFeature
	// Vector is the flattened feature vector for the classifier. Per
	// antenna pair it holds four size-independent components:
	// Ω̄ (Eq. 21), the bounded angular form atan2(−ln ΔΨ, ΔΘ+2γπ) — the
	// same physical ratio but stable when both parts are near zero (e.g.
	// oil) — and the two parts ΔΘ+2γπ and −ln ΔΨ themselves.
	Vector []float64
}

// clampOmega bounds the feature against blow-ups when ΔΘ ≈ 0 (e.g. a ray
// missing a very small container): the physical range of Ω for liquids is
// well inside ±2.
const omegaClamp = 5.0

// ExtractFeatures runs the full WiMi pipeline on a session: phase
// calibration, good-subcarrier selection, amplitude denoising, and the
// Ω̄ computation of Eqs. 18-21, per antenna pair.
//
// The work runs on a pooled Pipeline and the result is deep-copied out, so
// the returned Features is caller-owned; loops that can hold a Pipeline
// should identify through IdentifyDetailedP instead.
func ExtractFeatures(s *csi.Session, cfg Config) (*Features, error) {
	pl := GetPipeline()
	defer PutPipeline(pl)
	feats, err := pl.extractFeatures(s, cfg, nil)
	if err != nil {
		return nil, err
	}
	return feats.clone(), nil
}

// omegaFrom evaluates Eq. 21, Ω̄ = −ln ΔΨ / (ΔΘ + 2γπ), with the γ of
// Eq. 20 estimated from the coarse amplitude reading, clamped to the
// physically meaningful range.
func omegaFrom(theta, psi float64, cfg Config) float64 {
	gamma := estimateGamma(theta, psi, cfg)
	den := theta + 2*math.Pi*float64(gamma)
	num := -math.Log(psi)
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Copysign(omegaClamp, num)
	}
	return mathx.Clamp(num/den, -omegaClamp, omegaClamp)
}

// estimateGamma implements the paper's γ estimation: the amplitude ratio
// gives a coarse path difference D̂ = −ln ΔΨ / α_ref (Eq. 20, amplitude
// side); the phase side then demands ΔΘ + 2γπ ≈ −D̂·Δβ_ref, so γ is the
// nearest integer. Note the sign: with the physical e^{−jβd} convention a
// positive path difference shows up as a NEGATIVE measured phase change.
func estimateGamma(theta, psi float64, cfg Config) int {
	if cfg.GammaMax == 0 {
		return 0
	}
	dHat := -math.Log(psi) / cfg.RefAlpha
	want := -dHat * cfg.RefDeltaBeta
	gamma := int(math.Round((want - theta) / (2 * math.Pi)))
	if gamma > cfg.GammaMax {
		gamma = cfg.GammaMax
	}
	if gamma < -cfg.GammaMax {
		gamma = -cfg.GammaMax
	}
	return gamma
}

// AllPairs enumerates the p(p−1)/2 antenna pairs of a p-antenna receiver
// (Sec. III-F).
func AllPairs(numAnt int) []AntennaPair {
	var out []AntennaPair
	for a := 0; a < numAnt; a++ {
		for b := a + 1; b < numAnt; b++ {
			out = append(out, AntennaPair{A: a, B: b})
		}
	}
	return out
}

// PairStability measures the variance of phase difference and amplitude
// ratio for one pair over a capture, averaged over good subcarriers — the
// quantities of Fig. 10 used to pick the best antenna combination.
type PairStability struct {
	Pair          AntennaPair
	PhaseVariance float64
	RatioVariance float64
}

// RankPairs computes stability for every pair and returns them ordered
// best (most stable) first, combining both variances after normalising
// each to its maximum across pairs.
func RankPairs(c *csi.Capture, good []int, cfg Config) ([]PairStability, error) {
	pairs := cfg.Pairs
	if len(pairs) == 0 {
		pairs = AllPairs(c.NumAntennas())
	}
	if len(good) == 0 {
		return nil, fmt.Errorf("core: no subcarriers to rank pairs over")
	}
	stats := make([]PairStability, 0, len(pairs))
	for _, pair := range pairs {
		var pv, rv float64
		for _, sub := range good {
			v, err := phaseDiffVariance(c, pair, sub)
			if err != nil {
				return nil, err
			}
			pv += v
			rs, err := c.AmplitudeRatioSeries(pair.A, pair.B, sub)
			if err != nil {
				return nil, err
			}
			rv += mathx.Variance(rs) / (mathx.Mean(rs)*mathx.Mean(rs) + 1e-12)
		}
		stats = append(stats, PairStability{
			Pair:          pair,
			PhaseVariance: pv / float64(len(good)),
			RatioVariance: rv / float64(len(good)),
		})
	}
	// Normalise and sort by the combined score.
	var maxP, maxR float64
	for _, s := range stats {
		if s.PhaseVariance > maxP {
			maxP = s.PhaseVariance
		}
		if s.RatioVariance > maxR {
			maxR = s.RatioVariance
		}
	}
	score := func(s PairStability) float64 {
		out := 0.0
		if maxP > 0 {
			out += s.PhaseVariance / maxP
		}
		if maxR > 0 {
			out += s.RatioVariance / maxR
		}
		return out
	}
	for i := 1; i < len(stats); i++ {
		for j := i; j > 0 && score(stats[j]) < score(stats[j-1]); j-- {
			stats[j], stats[j-1] = stats[j-1], stats[j]
		}
	}
	return stats, nil
}
