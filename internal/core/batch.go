package core

import (
	"repro/internal/csi"
	"repro/internal/svm"
)

// BatchScratch owns the buffers one batched identification needs — the
// gathered query block handed to the classifier, the per-job details and
// errors, and the SVM batch scratch — so a warmed caller identifies whole
// micro-batches with zero steady-state heap allocations. Not safe for
// concurrent use; keep one per goroutine that runs batches.
type BatchScratch struct {
	queries [][]float64
	idx     []int
	dets    []Detail
	errs    []error
	svmB    svm.BatchScratch
}

func (bs *BatchScratch) grow(n int) {
	if cap(bs.queries) < n {
		bs.queries = make([][]float64, n)
	}
	if cap(bs.idx) < n {
		bs.idx = make([]int, n)
	}
	if cap(bs.dets) < n {
		bs.dets = make([]Detail, n)
	}
	if cap(bs.errs) < n {
		bs.errs = make([]error, n)
	}
	bs.queries = bs.queries[:n]
	bs.idx = bs.idx[:n]
	bs.dets = bs.dets[:n]
	bs.errs = bs.errs[:n]
}

// IdentifyDetailedBatchCachedP identifies a whole micro-batch: the DSP
// front-end (denoise, phase, feature extraction, scaling) runs per capture,
// each against its own pipeline and, when caches[i] is non-nil, its
// baseline cache; then the classifier predicts every successfully
// extracted capture in one blocked svm.PredictBatch call. Per-job results
// are bit-identical to calling IdentifyDetailedP(pls[i], sessions[i]) in a
// loop: the DSP stage is per-capture either way, a cache only memoises the
// baseline's share of it, and the batched classifier is pinned
// bit-identical to the sequential one.
//
// sessions[i] is processed against pls[i]; caches may be nil (all
// uncached) or parallel to sessions with nil entries for sessions without
// one. A length mismatch panics — it is a caller bug, not load-dependent.
// The returned slices are scratch-owned, parallel to sessions (dets[i] is
// only meaningful when errs[i] is nil), and valid until the next call with
// the same scratch.
func (id *Identifier) IdentifyDetailedBatchCachedP(bs *BatchScratch, pls []*Pipeline, sessions []*csi.Session, caches []*BaselineCache) ([]Detail, []error) {
	if len(pls) != len(sessions) {
		panic("core: IdentifyDetailedBatchCachedP needs one pipeline per session")
	}
	if caches != nil && len(caches) != len(sessions) {
		panic("core: IdentifyDetailedBatchCachedP needs one cache slot per session")
	}
	n := len(sessions)
	bs.grow(n)
	if n == 0 {
		return bs.dets, bs.errs
	}
	// Stage 1: per-capture DSP. Every job writes only its own slots;
	// errors are per-job results, not batch failures.
	for i := 0; i < n; i++ {
		id.batchExtract(bs, pls, sessions, caches, i)
	}
	// Stage 2: classify the survivors in one blocked call.
	// Each pipeline's scaled vector is private to its job, so gathering
	// them into the query block is alias-safe.
	w := 0
	for i := 0; i < n; i++ {
		if bs.errs[i] != nil {
			continue
		}
		bs.queries[w] = pls[i].scaled
		bs.idx[w] = i
		w++
	}
	if w == 0 {
		return bs.dets, bs.errs
	}
	if mc, ok := id.model.(*svm.Multiclass); ok {
		labels, confs := mc.PredictBatch(bs.queries[:w], &bs.svmB)
		for j := 0; j < w; j++ {
			bs.dets[bs.idx[j]].Material = labels[j]
			bs.dets[bs.idx[j]].Confidence = confs[j]
		}
	} else {
		for j := 0; j < w; j++ {
			bs.dets[bs.idx[j]].Material = id.model.Predict(bs.queries[j])
			bs.dets[bs.idx[j]].Confidence = 1
		}
	}
	return bs.dets, bs.errs
}

// batchExtract runs the per-capture half of a batched identification for
// job i: DSP feature extraction, the Ω̄ summary and classifier-input
// scaling, leaving the scaled query in pls[i].scaled and the outcome in
// bs.dets[i]/bs.errs[i].
func (id *Identifier) batchExtract(bs *BatchScratch, pls []*Pipeline, sessions []*csi.Session, caches []*BaselineCache, i int) {
	pl := pls[i]
	var bc *BaselineCache
	if caches != nil {
		bc = caches[i]
	}
	bs.dets[i] = Detail{Confidence: 1}
	feats, err := pl.extractFeaturesCached(sessions[i], id.cfg.Pipeline, bc)
	if err != nil {
		bs.errs[i] = err
		return
	}
	bs.errs[i] = nil
	var omegaSum float64
	for _, pf := range feats.Pairs {
		omegaSum += pf.Omega
	}
	if np := len(feats.Pairs); np > 0 {
		bs.dets[i].Omega = omegaSum / float64(np)
	}
	pl.scaled = id.scaler.TransformOneInto(pl.scaled, feats.Vector)
}
