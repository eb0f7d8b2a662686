package core

import (
	"repro/internal/csi"
	"repro/internal/dwt"
)

// BaselineCache memoises the baseline-side DSP products of one frozen
// baseline capture: the per-(pair,subcarrier) mean phase difference and
// denoised amplitude ratio of Eqs. 18-19, and the baseline half of the
// Eq. 7 subcarrier-variance vector. Within one appearance a sliding-window
// monitor re-identifies against the *identical* baseline every stride, so
// with a warm cache re-identification pays DSP only for the target window.
//
// Identity, not content, keys the cache: the address and length of the
// frozen baseline slice (the segmenter allocates a fresh private copy per
// appearance, and the cache's own pointer pins the array, so an address can
// never be recycled under it) plus the config knobs the cached values
// depend on — resolved wavelet, amplitude-denoise toggle, antenna count. A
// new appearance or a model hot-swap that changes any of these misses and
// resets; every cached value is a pure function of (baseline, key), so
// results are bit-identical to the uncached path.
//
// A BaselineCache is not safe for concurrent use. Keep one per stream (the
// hub does), not per pooled pipeline — pipelines rotate across streams and
// would thrash the key.
type BaselineCache struct {
	keyPkt  *csi.Packet
	keyLen  int
	wavelet *dwt.Wavelet
	denoise bool
	numAnt  int

	// Dense per-(pair,sub) tables, indexed (A*numAnt+B)*NumSubcarriers+sub.
	phase []float64
	ratio []float64
	has   []uint8

	// Baseline half of the Eq. 7 variance vector for one pair (extraction
	// only ever selects with pairs[0]).
	varPair AntennaPair
	varBase []float64
	hasVar  bool
}

const (
	blHasPhase = 1 << iota
	blHasRatio
)

// sync points the cache at s's baseline, resetting every entry when the
// identity key changed and keeping them all when it did not.
func (bc *BaselineCache) sync(s *csi.Session, cfg Config) {
	first := &s.Baseline.Packets[0]
	w := cfg.Wavelet
	if w == nil {
		w = dwt.DB4
	}
	numAnt := s.Baseline.NumAntennas()
	if bc.keyPkt == first && bc.keyLen == len(s.Baseline.Packets) &&
		bc.wavelet == w && bc.denoise == cfg.DenoiseAmplitude && bc.numAnt == numAnt {
		return
	}
	bc.keyPkt, bc.keyLen = first, len(s.Baseline.Packets)
	bc.wavelet, bc.denoise, bc.numAnt = w, cfg.DenoiseAmplitude, numAnt
	n := numAnt * numAnt * csi.NumSubcarriers
	if cap(bc.phase) < n {
		bc.phase = make([]float64, n)
		bc.ratio = make([]float64, n)
		bc.has = make([]uint8, n)
	} else {
		bc.phase = bc.phase[:n]
		bc.ratio = bc.ratio[:n]
		bc.has = bc.has[:n]
		for i := range bc.has {
			bc.has[i] = 0
		}
	}
	bc.hasVar = false
}

func (bc *BaselineCache) slot(pair AntennaPair, sub int) int {
	return (pair.A*bc.numAnt+pair.B)*csi.NumSubcarriers + sub
}

func (bc *BaselineCache) getPhase(pair AntennaPair, sub int) (float64, bool) {
	i := bc.slot(pair, sub)
	return bc.phase[i], bc.has[i]&blHasPhase != 0
}

func (bc *BaselineCache) putPhase(pair AntennaPair, sub int, v float64) {
	i := bc.slot(pair, sub)
	bc.phase[i] = v
	bc.has[i] |= blHasPhase
}

func (bc *BaselineCache) getRatio(pair AntennaPair, sub int) (float64, bool) {
	i := bc.slot(pair, sub)
	return bc.ratio[i], bc.has[i]&blHasRatio != 0
}

func (bc *BaselineCache) putRatio(pair AntennaPair, sub int, v float64) {
	i := bc.slot(pair, sub)
	bc.ratio[i] = v
	bc.has[i] |= blHasRatio
}

// baselineMeanPhaseDiff is meanPhaseDiff over the session baseline, read
// through the cache when one is attached. Errors are never cached: a
// failing baseline recomputes (and fails identically) on every attempt.
func (pl *Pipeline) baselineMeanPhaseDiff(s *csi.Session, pair AntennaPair, sub int, bc *BaselineCache) (float64, error) {
	if bc != nil {
		if v, ok := bc.getPhase(pair, sub); ok {
			return v, nil
		}
	}
	v, err := meanPhaseDiff(&s.Baseline, pair, sub)
	if err == nil && bc != nil {
		bc.putPhase(pair, sub, v)
	}
	return v, err
}

// baselineAmplitudeRatio is amplitudeRatio over the session baseline,
// read through the cache when one is attached.
func (pl *Pipeline) baselineAmplitudeRatio(s *csi.Session, pair AntennaPair, sub int, cfg Config, bc *BaselineCache) (float64, error) {
	if bc != nil {
		if v, ok := bc.getRatio(pair, sub); ok {
			return v, nil
		}
	}
	v, err := pl.amplitudeRatio(&s.Baseline, pair, sub, cfg, 1)
	if err == nil && bc != nil {
		bc.putRatio(pair, sub, v)
	}
	return v, err
}
