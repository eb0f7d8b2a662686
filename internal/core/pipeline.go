package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/csi"
	"repro/internal/dwt"
	"repro/internal/filter"
	"repro/internal/mathx"
	"repro/internal/svm"
)

// Pipeline owns every piece of scratch one end-to-end identification needs —
// phase-difference and amplitude series, 3σ outlier buffers, the wavelet
// workspace, subcarrier-selection variance vectors, the feature backing, the
// scaled classifier input and the SVM vote buffers — so a warmed pipeline
// runs a whole session from CSI matrices to material verdict without a
// single heap allocation.
//
// A Pipeline is NOT safe for concurrent use: keep one per goroutine, or let
// the compatibility wrappers (Identify, ExtractFeatures, ...) borrow one
// from the shared pool per call. Results are bit-identical to the
// allocating path — the pipeline reuses memory, never reorders arithmetic.
//
// Slices returned by pipeline-backed calls (Features from extract, the
// scaled vector) alias pipeline scratch and are valid only until the next
// call on the same pipeline.
type Pipeline struct {
	dws  *dwt.Workspace
	dcfg dwt.DenoiseConfig

	// Per-series scratch of the denoising cascade (Sec. III-C).
	phase      []float64 // inter-antenna phase-difference series
	ampA, ampB []float64 // raw amplitude series of the pair
	clean      []float64 // 3σ-cleaned series (shared by both antennas)
	mask       []bool    // 3σ outlier mask
	denA, denB []float64 // wavelet-denoised series
	ratios     []float64 // per-packet amplitude ratios
	medBuf     []float64 // Median scratch

	// Denoised-amplitude memo, valid for one extractFeatures call: every
	// pair containing an antenna needs the same denoised (antenna,
	// subcarrier) series, so it is computed once per session instead of
	// once per pair. Entries are fixed-stride windows of two flat backings
	// (one per capture side), so a cold pipeline pays a handful of
	// allocations, not one per entry. Valid-flag layout
	// (side*numAnt+ant)*NumSubcarriers+sub with side 0 = target, 1 =
	// baseline.
	ampMemoOK      []bool
	ampMemoTgt     []float64
	ampMemoBase    []float64
	ampMemoAnt     int
	ampMemoTgtLen  int
	ampMemoBaseLen int

	// Per-pair feature scratch (Eqs. 18-21).
	thetas, psis []float64

	// Good-subcarrier selection scratch (Eq. 7).
	varBase, varTarget, combined []float64
	argIdx                       []int
	good                         []int
	pairBuf                      []AntennaPair

	// Output backing: the flat per-subcarrier Ω store all pairs slice into,
	// the Features value extract returns a pointer to, and the classifier
	// input buffers.
	omegaFlat  []float64
	feats      Features
	scaled     []float64
	svmScratch svm.PredictScratch
}

// NewPipeline returns an empty pipeline; buffers grow on first use and are
// retained across calls.
func NewPipeline() *Pipeline { return &Pipeline{dws: dwt.NewWorkspace()} }

// pipePool backs the allocation-compatible wrappers: each wrapped call
// borrows a private pipeline for its duration, so concurrent callers never
// share scratch.
var pipePool = sync.Pool{New: func() any { return NewPipeline() }}

// GetPipeline borrows a pipeline from the shared pool. Return it with
// PutPipeline once every value derived from it has been copied out.
func GetPipeline() *Pipeline { return pipePool.Get().(*Pipeline) }

// PutPipeline returns a pipeline to the shared pool. The caller must hold
// no references into its scratch (Features, scaled vectors) afterwards.
func PutPipeline(p *Pipeline) {
	if p != nil {
		pipePool.Put(p)
	}
}

// growFloats returns buf resized to n without zeroing, reallocating only
// when capacity is insufficient.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// denoiseAmplitude is DenoiseAmplitudeSeries against pipeline scratch: the
// cleaned/mask/wavelet buffers are reused and the result lands in dst
// (grown as needed and returned). dst must not alias series.
func (pl *Pipeline) denoiseAmplitude(dst, series []float64, cfg Config) ([]float64, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("core: empty amplitude series")
	}
	if !cfg.DenoiseAmplitude {
		dst = growFloats(dst, len(series))
		copy(dst, series)
		return dst, nil
	}
	pl.clean, pl.mask = filter.RejectOutliers3SigmaInto(pl.clean, pl.mask, series)
	w := cfg.Wavelet
	if w == nil {
		w = dwt.DB4
	}
	pl.dcfg = dwt.DenoiseConfig{Wavelet: w}
	out, err := pl.dws.DenoiseInto(dst, pl.clean, &pl.dcfg)
	if err != nil {
		return nil, fmt.Errorf("core: wavelet denoise: %w", err)
	}
	return out, nil
}

// resetAmpMemo sizes and invalidates the denoised-amplitude memo for one
// session. Backings are retained across calls and grow to the high-water
// mark.
func (pl *Pipeline) resetAmpMemo(numAnt, tgtLen, baseLen int) {
	n := 2 * numAnt * csi.NumSubcarriers
	if cap(pl.ampMemoOK) < n {
		pl.ampMemoOK = make([]bool, n)
	} else {
		pl.ampMemoOK = pl.ampMemoOK[:n]
		for i := range pl.ampMemoOK {
			pl.ampMemoOK[i] = false
		}
	}
	pl.ampMemoTgt = growFloats(pl.ampMemoTgt, numAnt*csi.NumSubcarriers*tgtLen)
	pl.ampMemoBase = growFloats(pl.ampMemoBase, numAnt*csi.NumSubcarriers*baseLen)
	pl.ampMemoAnt = numAnt
	pl.ampMemoTgtLen = tgtLen
	pl.ampMemoBaseLen = baseLen
}

// denoisedAmpSeries extracts and denoises one antenna's amplitude series at
// one subcarrier, memoised per (side, antenna, subcarrier) within the
// current extraction. Entries are disjoint fixed-stride windows of the
// side's flat backing, so the two sides of a ratio never alias. The
// returned slice is valid until the next extraction resets the memo.
func (pl *Pipeline) denoisedAmpSeries(c *csi.Capture, ant, sub, side int, cfg Config) ([]float64, error) {
	i := (side*pl.ampMemoAnt+ant)*csi.NumSubcarriers + sub
	e := ant*csi.NumSubcarriers + sub
	flat, n := pl.ampMemoTgt, pl.ampMemoTgtLen
	if side == 1 {
		flat, n = pl.ampMemoBase, pl.ampMemoBaseLen
	}
	buf := flat[e*n : (e+1)*n : (e+1)*n]
	if pl.ampMemoOK[i] {
		return buf, nil
	}
	var err error
	pl.ampA, err = c.AmplitudeSeriesInto(pl.ampA, ant, sub)
	if err != nil {
		return nil, fmt.Errorf("core: antenna %d: %w", ant, err)
	}
	out, err := pl.denoiseAmplitude(buf[:0], pl.ampA, cfg)
	if err != nil {
		return nil, err
	}
	copy(buf, out)
	pl.ampMemoOK[i] = true
	return buf, nil
}

// amplitudeRatio extracts the denoised mean inter-antenna amplitude ratio
// at one subcarrier over a capture, on pipeline scratch: both antennas'
// series are cleaned independently, divided per packet, and averaged —
// the stable amplitude quantity of Fig. 8. The median, not the mean,
// averages the denoised ratios: an impulse surviving the wavelet filter
// lands in only a packet or two and the median ignores it; the raw arm of
// the Fig. 14 ablation averages plainly. side selects the
// denoised-amplitude memo slot (0 target, 1 baseline); side -1 bypasses
// the memo for callers outside a session extraction (public wrappers).
func (pl *Pipeline) amplitudeRatio(c *csi.Capture, pair AntennaPair, sub int, cfg Config, side int) (float64, error) {
	var denA, denB []float64
	var err error
	if side < 0 {
		pl.ampA, err = c.AmplitudeSeriesInto(pl.ampA, pair.A, sub)
		if err != nil {
			return 0, fmt.Errorf("core: antenna %d: %w", pair.A, err)
		}
		pl.ampB, err = c.AmplitudeSeriesInto(pl.ampB, pair.B, sub)
		if err != nil {
			return 0, fmt.Errorf("core: antenna %d: %w", pair.B, err)
		}
		pl.denA, err = pl.denoiseAmplitude(pl.denA, pl.ampA, cfg)
		if err != nil {
			return 0, err
		}
		pl.denB, err = pl.denoiseAmplitude(pl.denB, pl.ampB, cfg)
		if err != nil {
			return 0, err
		}
		denA, denB = pl.denA, pl.denB
	} else {
		denA, err = pl.denoisedAmpSeries(c, pair.A, sub, side, cfg)
		if err != nil {
			return 0, err
		}
		denB, err = pl.denoisedAmpSeries(c, pair.B, sub, side, cfg)
		if err != nil {
			return 0, err
		}
	}
	pl.ratios = pl.ratios[:0]
	for i := range denA {
		if denB[i] <= 0 {
			continue // a denoised zero: drop the sample rather than divide
		}
		pl.ratios = append(pl.ratios, denA[i]/denB[i])
	}
	if len(pl.ratios) == 0 {
		return 0, fmt.Errorf("core: no usable amplitude samples at subcarrier %d", sub)
	}
	if !cfg.DenoiseAmplitude {
		return mathx.Mean(pl.ratios), nil
	}
	var med float64
	med, pl.medBuf = mathx.MedianBuf(pl.ratios, pl.medBuf)
	return med, nil
}

// meanPhaseDiff extracts the circular-mean inter-antenna phase difference
// at one subcarrier over a capture, on pipeline scratch — the ΔZ averaging
// of Eq. 6 ("removed by averaging it over a time window").
func (pl *Pipeline) meanPhaseDiff(c *csi.Capture, pair AntennaPair, sub int) (float64, error) {
	var err error
	pl.phase, err = c.PhaseDiffSeriesInto(pl.phase, pair.A, pair.B, sub)
	if err != nil {
		return 0, err
	}
	m := mathx.CircularMean(pl.phase)
	if m != m { // NaN: balanced phasors
		return 0, fmt.Errorf("core: phase difference has no defined mean at subcarrier %d", sub)
	}
	return m, nil
}

// subcarrierVariancesInto mirrors SubcarrierVariances into a caller buffer.
func (pl *Pipeline) subcarrierVariancesInto(dst []float64, c *csi.Capture, pair AntennaPair) ([]float64, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("core: empty capture")
	}
	dst = growFloats(dst, csi.NumSubcarriers)
	for sub := 0; sub < csi.NumSubcarriers; sub++ {
		var err error
		pl.phase, err = c.PhaseDiffSeriesInto(pl.phase, pair.A, pair.B, sub)
		if err != nil {
			return nil, fmt.Errorf("core: subcarrier %d: %w", sub, err)
		}
		dst[sub] = mathx.CircularVariance(pl.phase)
	}
	return dst, nil
}

// selectGoodSubcarriersSession mirrors SelectGoodSubcarriersSession; the
// returned slice is pipeline scratch (pl.good). The baseline half of the
// variance vector reads through bc when a cache is attached.
func (pl *Pipeline) selectGoodSubcarriersSession(s *csi.Session, pair AntennaPair, p int, bc *BaselineCache) ([]int, error) {
	if p < 1 || p > csi.NumSubcarriers {
		return nil, fmt.Errorf("core: P=%d outside [1,%d]", p, csi.NumSubcarriers)
	}
	var err error
	if bc != nil && bc.hasVar && bc.varPair == pair {
		pl.varBase = growFloats(pl.varBase, csi.NumSubcarriers)
		copy(pl.varBase, bc.varBase)
	} else {
		pl.varBase, err = pl.subcarrierVariancesInto(pl.varBase, &s.Baseline, pair)
		if err != nil {
			return nil, fmt.Errorf("core: baseline variances: %w", err)
		}
		if bc != nil {
			bc.varBase = growFloats(bc.varBase, csi.NumSubcarriers)
			copy(bc.varBase, pl.varBase)
			bc.varPair, bc.hasVar = pair, true
		}
	}
	pl.varTarget, err = pl.subcarrierVariancesInto(pl.varTarget, &s.Target, pair)
	if err != nil {
		return nil, fmt.Errorf("core: target variances: %w", err)
	}
	pl.combined = growFloats(pl.combined, len(pl.varBase))
	for i := range pl.combined {
		pl.combined[i] = pl.varBase[i] + pl.varTarget[i]
	}
	pl.argIdx = mathx.ArgSortBuf(pl.combined, pl.argIdx)
	pl.good = append(pl.good[:0], pl.argIdx[:p]...)
	sort.Ints(pl.good)
	return pl.good, nil
}

// extractPairFeature computes Eqs. 18-21 for one antenna pair. omegaDst is
// the (zero-length, pre-capped) window of pl.omegaFlat the pair's
// per-subcarrier Ω values append into. The baseline-side DSP reads through
// bc when a cache is attached.
func (pl *Pipeline) extractPairFeature(s *csi.Session, pair AntennaPair, good []int, cfg Config, omegaDst []float64, bc *BaselineCache) (PairFeature, error) {
	pf := PairFeature{Pair: pair}
	pl.thetas = pl.thetas[:0]
	pl.psis = pl.psis[:0]
	for _, sub := range good {
		// Eq. 18: ΔΘ = (φ̃tar,A − φ̃tar,B) − (φ̃free,A − φ̃free,B).
		tgt, err := pl.meanPhaseDiff(&s.Target, pair, sub)
		if err != nil {
			return pf, err
		}
		base, err := pl.baselineMeanPhaseDiff(s, pair, sub, bc)
		if err != nil {
			return pf, err
		}
		theta := mathx.AngleDiff(tgt, base)
		// Eq. 19: ΔΨ = (Atar,A/Atar,B) · (Afree,B/Afree,A).
		rTgt, err := pl.amplitudeRatio(&s.Target, pair, sub, cfg, 0)
		if err != nil {
			return pf, err
		}
		rBase, err := pl.baselineAmplitudeRatio(s, pair, sub, cfg, bc)
		if err != nil {
			return pf, err
		}
		if rBase == 0 {
			return pf, fmt.Errorf("core: zero baseline amplitude ratio at subcarrier %d", sub)
		}
		psi := rTgt / rBase
		if psi <= 0 {
			return pf, fmt.Errorf("core: non-positive ΔΨ %v at subcarrier %d", psi, sub)
		}
		pl.thetas = append(pl.thetas, theta)
		pl.psis = append(pl.psis, psi)
		omegaDst = append(omegaDst, omegaFrom(theta, psi, cfg))
	}
	pf.PerSubcarrierOmega = omegaDst
	pf.DeltaTheta = mathx.CircularMean(pl.thetas)
	if math.IsNaN(pf.DeltaTheta) {
		pf.DeltaTheta = 0
	}
	pf.DeltaPsi = mathx.Mean(pl.psis)
	pf.Gamma = estimateGamma(pf.DeltaTheta, pf.DeltaPsi, cfg)
	pf.Omega = omegaFrom(pf.DeltaTheta, pf.DeltaPsi, cfg)
	return pf, nil
}

// extractFeatures runs the full WiMi pipeline on a session against pipeline
// scratch. The returned Features (and every slice it holds) aliases the
// pipeline and is valid only until its next use; ExtractFeatures wraps this
// with a deep copy for callers that keep the result.
func (pl *Pipeline) extractFeatures(s *csi.Session, cfg Config) (*Features, error) {
	return pl.extractFeaturesCached(s, cfg, nil)
}

// extractFeaturesCached is extractFeatures with an optional per-appearance
// baseline-feature cache: the baseline side of Eqs. 7/18/19 reads through
// bc, so a warm cache pays DSP only for the target window. Results are
// bit-identical to the uncached path (every cached value is a pure function
// of the keyed baseline).
func (pl *Pipeline) extractFeaturesCached(s *csi.Session, cfg Config, bc *BaselineCache) (*Features, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if bc != nil {
		bc.sync(s, cfg)
	}
	pairs := cfg.Pairs
	numAnt := s.Baseline.NumAntennas()
	if len(pairs) == 0 {
		pl.pairBuf = pl.pairBuf[:0]
		for a := 0; a < numAnt; a++ {
			for b := a + 1; b < numAnt; b++ {
				pl.pairBuf = append(pl.pairBuf, AntennaPair{A: a, B: b})
			}
		}
		pairs = pl.pairBuf
	}
	for _, p := range pairs {
		if p.A >= numAnt || p.B >= numAnt {
			return nil, fmt.Errorf("core: pair %v exceeds %d antennas", p, numAnt)
		}
	}
	pl.resetAmpMemo(numAnt, s.Target.Len(), s.Baseline.Len())
	// Good subcarriers are selected over the whole session with the first
	// pair, so the baseline and target sides of Eq. 18 use the same
	// subcarriers.
	var good []int
	if len(cfg.ForcedSubcarriers) > 0 {
		for _, sub := range cfg.ForcedSubcarriers {
			if sub < 0 || sub >= csi.NumSubcarriers {
				return nil, fmt.Errorf("core: forced subcarrier %d out of range", sub)
			}
		}
		pl.good = append(pl.good[:0], cfg.ForcedSubcarriers...)
		good = pl.good
	} else {
		var err error
		good, err = pl.selectGoodSubcarriersSession(s, pairs[0], cfg.GoodSubcarriers, bc)
		if err != nil {
			return nil, err
		}
	}
	out := &pl.feats
	out.GoodSubcarriers = good
	out.Pairs = out.Pairs[:0]
	out.Vector = out.Vector[:0]
	// Pre-size the flat Ω backing before slicing pair windows out of it:
	// growing it mid-loop would move earlier pairs' windows.
	if cap(pl.omegaFlat) < len(pairs)*len(good) {
		pl.omegaFlat = make([]float64, len(pairs)*len(good))
	}
	for i, pair := range pairs {
		window := pl.omegaFlat[i*len(good) : i*len(good) : (i+1)*len(good)]
		pf, err := pl.extractPairFeature(s, pair, good, cfg, window, bc)
		if err != nil {
			return nil, fmt.Errorf("core: pair %v: %w", pair, err)
		}
		out.Pairs = append(out.Pairs, pf)
		if cfg.OmegaOnlyFeatures {
			out.Vector = append(out.Vector, pf.Omega)
			continue
		}
		num := -math.Log(pf.DeltaPsi)
		den := pf.DeltaTheta + 2*math.Pi*float64(pf.Gamma)
		out.Vector = append(out.Vector, pf.Omega, math.Atan2(num, den), den, num)
	}
	return out, nil
}

// clone deep-copies a pipeline-backed Features so it outlives the pipeline.
func (f *Features) clone() *Features {
	out := &Features{
		GoodSubcarriers: append([]int(nil), f.GoodSubcarriers...),
		Pairs:           append([]PairFeature(nil), f.Pairs...),
		Vector:          append([]float64(nil), f.Vector...),
	}
	for i := range out.Pairs {
		out.Pairs[i].PerSubcarrierOmega = append([]float64(nil), f.Pairs[i].PerSubcarrierOmega...)
	}
	return out
}

// classifyScaled standardises a pipeline-backed feature vector and runs the
// classifier with pipeline scratch, returning label and vote confidence
// (1 for backends without a vote notion).
func (id *Identifier) classifyScaled(pl *Pipeline, vector []float64) (string, float64) {
	pl.scaled = id.scaler.TransformOneInto(pl.scaled, vector)
	if mc, ok := id.model.(*svm.Multiclass); ok {
		return mc.PredictWithConfidenceScratch(pl.scaled, &pl.svmScratch)
	}
	return id.model.Predict(pl.scaled), 1
}

// IdentifyP is Identify against caller-owned pipeline scratch: a warmed
// pipeline classifies with zero steady-state allocation. Results are
// bit-identical to Identify.
func (id *Identifier) IdentifyP(pl *Pipeline, s *csi.Session) (string, error) {
	feats, err := pl.extractFeatures(s, id.cfg.Pipeline)
	if err != nil {
		return "", err
	}
	label, _ := id.classifyScaled(pl, feats.Vector)
	return label, nil
}

// IdentifyWithConfidenceP is IdentifyWithConfidence against caller-owned
// pipeline scratch.
func (id *Identifier) IdentifyWithConfidenceP(pl *Pipeline, s *csi.Session) (string, float64, error) {
	feats, err := pl.extractFeatures(s, id.cfg.Pipeline)
	if err != nil {
		return "", 0, err
	}
	label, conf := id.classifyScaled(pl, feats.Vector)
	return label, conf, nil
}

// IdentifyDetailedP is IdentifyDetailed against caller-owned pipeline
// scratch, returning the Detail by value so the serving hot path allocates
// nothing per request.
func (id *Identifier) IdentifyDetailedP(pl *Pipeline, s *csi.Session) (Detail, error) {
	return id.IdentifyDetailedCachedP(pl, s, nil)
}

// IdentifyDetailedCachedP is IdentifyDetailedP with an optional
// per-appearance BaselineCache (nil behaves exactly like IdentifyDetailedP;
// non-nil skips the baseline-side DSP on a warm cache). Bit-identical
// either way.
func (id *Identifier) IdentifyDetailedCachedP(pl *Pipeline, s *csi.Session, bc *BaselineCache) (Detail, error) {
	feats, err := pl.extractFeaturesCached(s, id.cfg.Pipeline, bc)
	if err != nil {
		return Detail{}, err
	}
	det := Detail{Confidence: 1}
	var omegaSum float64
	for _, pf := range feats.Pairs {
		omegaSum += pf.Omega
	}
	if n := len(feats.Pairs); n > 0 {
		det.Omega = omegaSum / float64(n)
	}
	det.Material, det.Confidence = id.classifyScaled(pl, feats.Vector)
	return det, nil
}

// NoveltyScoreP is NoveltyScore against caller-owned pipeline scratch.
func (id *Identifier) NoveltyScoreP(pl *Pipeline, s *csi.Session) (float64, error) {
	feats, err := pl.extractFeatures(s, id.cfg.Pipeline)
	if err != nil {
		return 0, err
	}
	if len(id.trainX) == 0 || id.nnScale <= 0 {
		return 0, fmt.Errorf("core: identifier has no novelty calibration")
	}
	pl.scaled = id.scaler.TransformOneInto(pl.scaled, feats.Vector)
	return nearestDistance(pl.scaled, id.trainX, -1) / id.nnScale, nil
}
