package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"sync"

	"repro/internal/csi"
	"repro/internal/dwt"
	"repro/internal/filter"
	"repro/internal/mathx"
	"repro/internal/svm"
)

// Pipeline owns every piece of scratch one end-to-end identification needs —
// the staged captures, 3σ outlier buffers, the wavelet workspace,
// subcarrier-selection variance vectors, the feature backing, the scaled
// classifier input and the SVM vote buffers — so a warmed pipeline runs a
// whole session from CSI matrices to material verdict without a single heap
// allocation.
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

	// The session's two capture sides, each staged in one pass over its
	// packets, and the antennas the pairs use (ascending; slotOf maps an
	// antenna to its index here, the column slot of a stage).
	tgt, base captureStage
	antennas  []int
	slotOf    []int

	// Per-series scratch of the denoising cascade (Sec. III-C).
	clean  []float64 // 3σ-cleaned series
	mask   []bool    // 3σ outlier mask
	ratios []float64 // per-packet amplitude ratios
	medBuf []float64 // Median scratch

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

// captureStage is one capture side of a session read in one pass over its
// packets: the |H| series of every (antenna a pair uses, good subcarrier)
// as a contiguous column, denoised in place, and the phase-difference
// resultant of every (pair, good subcarrier).
type captureStage struct {
	n      int       // packets: the length of every column
	amp    []float64 // column slot·len(good)+g spans [col·n, (col+1)·n)
	rx, ry []float64 // resultant of pair p at good subcarrier g: p·len(good)+g
	short  []bool    // per pair: some packet lacks one of the pair's antennas
}

// column returns the |H| column of antenna slot at good subcarrier g.
func (st *captureStage) column(slot, g, numGood int) []float64 {
	i := (slot*numGood + g) * st.n
	return st.amp[i : i+st.n : i+st.n]
}

// meanPhaseDiff is the circular-mean phase difference of pair p (the p-th
// of the staged pairs) at good subcarrier g. c is the staged capture; it
// is read again only to word the error of a short pair, which
// PhaseDiffResultant reports for the first packet lacking an antenna.
func (st *captureStage) meanPhaseDiff(c *csi.Capture, p int, pair AntennaPair, g int, good []int) (float64, error) {
	if st.short[p] {
		_, _, err := c.PhaseDiffResultant(pair.A, pair.B, good[g])
		return 0, err
	}
	i := p*len(good) + g
	return resultantMean(st.rx[i], st.ry[i], good[g])
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

// useAntennas lists the antennas the pairs use, ascending, and maps each to
// its column slot.
func (pl *Pipeline) useAntennas(pairs []AntennaPair, numAnt int) {
	pl.antennas = pl.antennas[:0]
	if cap(pl.slotOf) < numAnt {
		pl.slotOf = make([]int, numAnt)
	}
	pl.slotOf = pl.slotOf[:numAnt]
	for a := 0; a < numAnt; a++ {
		for _, p := range pairs {
			if p.A == a || p.B == a {
				pl.slotOf[a] = len(pl.antennas)
				pl.antennas = append(pl.antennas, a)
				break
			}
		}
	}
}

// stage reads capture c into st in one pass over its packets, for the
// pairs and good subcarriers of this extraction, then denoises every
// column in place. Each series gets the operations, in the order, that a
// walk over that series alone would give it: |H| is cmplx.Abs, and each
// resultant sums PhaseDiffPhasor terms in packet order. A packet without
// one of a pair's antennas marks the pair short, and the cells of the
// antennas it lacks keep whatever they held: every pair using such an
// antenna is short, and a short pair's phase step reports the error before
// its ratio reads a column.
func (pl *Pipeline) stage(st *captureStage, c *csi.Capture, pairs []AntennaPair, good []int, cfg Config) error {
	n, ng := c.Len(), len(good)
	st.n = n
	st.amp = growFloats(st.amp, len(pl.antennas)*ng*n)
	st.rx = growFloats(st.rx, len(pairs)*ng)
	st.ry = growFloats(st.ry, len(pairs)*ng)
	for i := range st.rx {
		st.rx[i], st.ry[i] = 0, 0
	}
	if cap(st.short) < len(pairs) {
		st.short = make([]bool, len(pairs))
	}
	st.short = st.short[:len(pairs)]
	for p := range st.short {
		st.short[p] = false
	}
	for i := range c.Packets {
		v := c.Packets[i].CSI.Values
		for slot, a := range pl.antennas {
			if a >= len(v) {
				continue
			}
			cells, row := st.amp[slot*ng*n+i:], v[a]
			for g, sub := range good {
				cells[g*n] = cmplx.Abs(row[sub])
			}
		}
		for p, pair := range pairs {
			if pair.A >= len(v) || pair.B >= len(v) {
				st.short[p] = true
				continue
			}
			ra, rb := v[pair.A], v[pair.B]
			rx, ry := st.rx[p*ng:(p+1)*ng], st.ry[p*ng:(p+1)*ng]
			for g, sub := range good {
				x, y := csi.PhaseDiffPhasor(ra[sub], rb[sub])
				rx[g] += x
				ry[g] += y
			}
		}
	}
	if !cfg.DenoiseAmplitude {
		return nil
	}
	w := cfg.Wavelet
	if w == nil {
		w = dwt.DB4
	}
	pl.dcfg = dwt.DenoiseConfig{Wavelet: w}
	for col := 0; col < len(pl.antennas)*ng; col++ {
		series := st.amp[col*n : (col+1)*n]
		// The 3σ step writes pl.clean, so the wavelet step reads the
		// cleaned series while it overwrites the column.
		pl.clean, pl.mask = filter.RejectOutliers3SigmaInto(pl.clean, pl.mask, series)
		if _, err := pl.dws.DenoiseInto(series, pl.clean, &pl.dcfg); err != nil {
			return fmt.Errorf("core: wavelet denoise: %w", err)
		}
	}
	return nil
}

// amplitudeRatio is the denoised mean inter-antenna amplitude ratio at one
// subcarrier, from the two antennas' denoised columns: divided per packet
// and averaged — the stable amplitude quantity of Fig. 8. The median, not
// the mean, averages the denoised ratios: an impulse surviving the wavelet
// filter lands in only a packet or two and the median ignores it; the raw
// arm of the Fig. 14 ablation averages plainly.
func (pl *Pipeline) amplitudeRatio(denA, denB []float64, sub int, cfg Config) (float64, error) {
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
		pl.varBase, err = subcarrierVariancesInto(pl.varBase, &s.Baseline, pair)
		if err != nil {
			return nil, fmt.Errorf("core: baseline variances: %w", err)
		}
		if bc != nil {
			bc.varBase = growFloats(bc.varBase, csi.NumSubcarriers)
			copy(bc.varBase, pl.varBase)
			bc.varPair, bc.hasVar = pair, true
		}
	}
	pl.varTarget, err = subcarrierVariancesInto(pl.varTarget, &s.Target, pair)
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

// extractPairFeature computes Eqs. 18-21 for pairs[p] from the staged
// captures. omegaDst is the (zero-length, pre-capped) window of
// pl.omegaFlat the pair's per-subcarrier Ω values append into. The
// baseline values read through bc when a cache is attached; the baseline
// stage is read only for what bc lacks.
func (pl *Pipeline) extractPairFeature(s *csi.Session, p int, pair AntennaPair, good []int, cfg Config, omegaDst []float64, bc *BaselineCache) (PairFeature, error) {
	pf := PairFeature{Pair: pair}
	pl.thetas = pl.thetas[:0]
	pl.psis = pl.psis[:0]
	sa, sb := pl.slotOf[pair.A], pl.slotOf[pair.B]
	for g, sub := range good {
		// Eq. 18: ΔΘ = (φ̃tar,A − φ̃tar,B) − (φ̃free,A − φ̃free,B).
		tgt, err := pl.tgt.meanPhaseDiff(&s.Target, p, pair, g, good)
		if err != nil {
			return pf, err
		}
		base, ok := bc.getPhase(pair, sub)
		if !ok {
			if base, err = pl.base.meanPhaseDiff(&s.Baseline, p, pair, g, good); err != nil {
				return pf, err
			}
			bc.putPhase(pair, sub, base)
		}
		theta := mathx.AngleDiff(tgt, base)
		// Eq. 19: ΔΨ = (Atar,A/Atar,B) · (Afree,B/Afree,A).
		rTgt, err := pl.amplitudeRatio(pl.tgt.column(sa, g, len(good)), pl.tgt.column(sb, g, len(good)), sub, cfg)
		if err != nil {
			return pf, err
		}
		rBase, ok := bc.getRatio(pair, sub)
		if !ok {
			if rBase, err = pl.amplitudeRatio(pl.base.column(sa, g, len(good)), pl.base.column(sb, g, len(good)), sub, cfg); err != nil {
				return pf, err
			}
			bc.putRatio(pair, sub, rBase)
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
//
// bc, when non-nil, is a per-appearance baseline-feature cache: the
// baseline side of Eqs. 7/18/19 reads through it, so a warm cache pays DSP
// only for the target window. Results are bit-identical to the uncached
// path (every cached value is a pure function of the keyed baseline).
func (pl *Pipeline) extractFeatures(s *csi.Session, cfg Config, bc *BaselineCache) (*Features, error) {
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
	// Stage each capture side once: the target always, the baseline only
	// when the cache lacks one of its values.
	pl.useAntennas(pairs, numAnt)
	if err := pl.stage(&pl.tgt, &s.Target, pairs, good, cfg); err != nil {
		return nil, err
	}
	if !bc.covers(pairs, good) {
		if err := pl.stage(&pl.base, &s.Baseline, pairs, good, cfg); err != nil {
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
		pf, err := pl.extractPairFeature(s, i, pair, good, cfg, window, bc)
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
	// Finite-input contract: no verdict is built on a non-finite value. The
	// vector carries every pair's Ω̄, so this one pass covers both.
	for i, v := range out.Vector {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite feature component %d (%v)", i, v)
		}
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

// IdentifyDetailedP is IdentifyDetailed against caller-owned pipeline
// scratch, returning the Detail by value so a warmed pipeline identifies
// with zero steady-state allocation. bc, when non-nil, is the stream's
// per-appearance BaselineCache: a warm cache skips the baseline-side DSP.
// Results are bit-identical with and without one.
func (id *Identifier) IdentifyDetailedP(pl *Pipeline, s *csi.Session, bc *BaselineCache) (Detail, error) {
	feats, err := pl.extractFeatures(s, id.cfg.Pipeline, bc)
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
