package svm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/parallel"
)

// pairSeedStride separates the derived per-pair training seeds. Each
// one-vs-one machine trains with cfg.Seed + pairIndex*pairSeedStride, so
// every training task owns an independent deterministic rng regardless of
// which worker runs it.
const pairSeedStride = 104_729

// Multiclass is a one-vs-one ensemble of binary SVMs over string class
// labels, the standard construction for multi-material identification.
type Multiclass struct {
	classes []string
	dim     int // feature dimensionality, shared by every pairwise machine
	// pairs[i] votes between classes[pairA[i]] and classes[pairB[i]].
	pairA, pairB []int
	models       []*Binary
	// pairIdx[i] maps pair i's local sample indices to indices in the
	// training set the ensemble was fitted on, enabling Gram-row prediction.
	pairIdx [][]int

	// poolOnce/pool lazily build the deduplicated support-vector pool every
	// prediction evaluates against (pool.go). The ensemble is immutable
	// after training/loading, so the pool is built at most once and shared
	// by every concurrent query.
	poolOnce sync.Once
	pool     *svPool
}

// TrainMulticlass fits one binary SVM per unordered class pair. x and
// labels must be equal-length, non-empty and rectangular; at least two
// distinct classes are required.
//
// The kernel matrix over the full dataset is computed once and every
// pairwise machine trains on a slice of it, so a sample pair shared by
// several one-vs-one problems never has its kernel re-evaluated. Pair
// machines are independent and train concurrently on cfg.Workers workers;
// the ensemble is bit-identical at any worker count.
func TrainMulticlass(x [][]float64, labels []string, kernel Kernel, cfg Config) (*Multiclass, error) {
	if len(x) == 0 || len(x) != len(labels) {
		return nil, fmt.Errorf("svm: need matching non-empty x (%d) and labels (%d)", len(x), len(labels))
	}
	if kernel == nil {
		return nil, fmt.Errorf("svm: nil kernel")
	}
	dim := len(x[0])
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("svm: ragged sample %d: %d dims, want %d", i, len(x[i]), dim)
		}
	}
	byClass := make(map[string][]int)
	for i, lab := range labels {
		byClass[lab] = append(byClass[lab], i)
	}
	if len(byClass) < 2 {
		return nil, fmt.Errorf("svm: need at least 2 classes, got %d", len(byClass))
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return trainMulticlassGram(x, labels, gramMatrix(x, kernel), classes, byClass, kernel, cfg, dim)
}

// trainMulticlassGram fits the one-vs-one ensemble from a precomputed full
// kernel matrix. gram[i][j] must equal kernel.Eval(x[i], x[j]) over the
// complete dataset; per-pair sub-matrices are sliced from it.
//
// The class pairs fan out over the internal/parallel pool: every pair task
// reads the shared x and gram (never writes them), trains with its own
// derived seed, and stores its model at its own pair index, so the
// assembled ensemble is byte-identical whether cfg.Workers is 1 or 100.
func trainMulticlassGram(x [][]float64, labels []string, gram [][]float64, classes []string, byClass map[string][]int, kernel Kernel, cfg Config, dim int) (*Multiclass, error) {
	mc := &Multiclass{classes: classes, dim: dim}
	for a := 0; a < len(classes); a++ {
		for b := a + 1; b < len(classes); b++ {
			mc.pairA = append(mc.pairA, a)
			mc.pairB = append(mc.pairB, b)
		}
	}
	mc.models = make([]*Binary, len(mc.pairA))
	mc.pairIdx = make([][]int, len(mc.pairA))
	err := parallel.ForEach(len(mc.pairA), cfg.Workers, func(p int) error {
		a, b := mc.pairA[p], mc.pairB[p]
		idxA, idxB := byClass[classes[a]], byClass[classes[b]]
		sub := len(idxA) + len(idxB)
		subX := make([][]float64, 0, sub)
		subY := make([]float64, 0, sub)
		ord := make([]int, 0, sub)
		for _, i := range idxA {
			subX = append(subX, x[i])
			subY = append(subY, 1)
			ord = append(ord, i)
		}
		for _, i := range idxB {
			subX = append(subX, x[i])
			subY = append(subY, -1)
			ord = append(ord, i)
		}
		if _, err := validateBinary(subX, subY, kernel); err != nil {
			return fmt.Errorf("svm: pair %s/%s: %w", classes[a], classes[b], err)
		}
		subGram := newGram(sub)
		for si, p := range ord {
			row := subGram[si]
			src := gram[p]
			for sj, q := range ord {
				row[sj] = src[q]
			}
		}
		pairCfg := cfg
		pairCfg.Seed = cfg.Seed + int64(p)*pairSeedStride
		model, err := trainBinaryGram(subX, subY, subGram, kernel, pairCfg, dim)
		if err != nil {
			return fmt.Errorf("svm: pair %s/%s: %w", classes[a], classes[b], err)
		}
		mc.models[p] = model
		mc.pairIdx[p] = ord
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mc, nil
}

// Dim returns the feature dimensionality the ensemble was trained on.
func (mc *Multiclass) Dim() int { return mc.dim }

// Classes returns the sorted class labels the model can emit.
func (mc *Multiclass) Classes() []string {
	return append([]string(nil), mc.classes...)
}

// Predict returns the majority-vote class for x. Ties break toward the
// pairwise decision margin sum (then lexicographically), so prediction is
// deterministic.
func (mc *Multiclass) Predict(x []float64) string {
	label, _ := mc.PredictWithConfidence(x)
	return label
}

// PredictWithConfidence returns the winning class together with a
// confidence in [0, 1]: the winner's share of pairwise votes, scaled so a
// unanimous winner scores 1 and a bare plurality scores near 1/k. Low
// confidence indicates the sample sits between classes (or outside the
// trained distribution) — the basis of open-set rejection.
//
// x must have Dim() features; a mismatched query panics with a descriptive
// message instead of silently truncating inside the kernel.
func (mc *Multiclass) PredictWithConfidence(x []float64) (string, float64) {
	return mc.PredictWithConfidenceScratch(x, nil)
}

// PredictScratch holds the per-prediction buffers — the query's kernel row
// over the support-vector pool and the vote and margin tallies — so a
// caller classifying in a loop reuses them across calls. A scratch is not
// safe for concurrent use; keep one per goroutine.
type PredictScratch struct {
	krow   []float64
	votes  []int
	margin []float64
}

// kernelRow returns a length-n buffer for the query's kernel values, drawn
// from the scratch when non-nil and freshly allocated otherwise.
func (sc *PredictScratch) kernelRow(n int) []float64 {
	if sc == nil {
		return make([]float64, n)
	}
	if cap(sc.krow) < n {
		sc.krow = make([]float64, n)
	}
	return sc.krow[:n]
}

// tally returns zeroed vote and margin buffers of length k, drawn from the
// scratch when non-nil (grown as needed, retained across calls) and freshly
// allocated otherwise.
func (sc *PredictScratch) tally(k int) ([]int, []float64) {
	if sc == nil {
		return make([]int, k), make([]float64, k)
	}
	if cap(sc.votes) < k {
		sc.votes = make([]int, k)
	}
	if cap(sc.margin) < k {
		sc.margin = make([]float64, k)
	}
	votes := sc.votes[:k]
	margin := sc.margin[:k]
	for i := range votes {
		votes[i] = 0
		margin[i] = 0
	}
	return votes, margin
}

// PredictWithConfidenceScratch is PredictWithConfidence drawing its buffers
// from sc (grown as needed). sc may be nil, which falls back to fresh
// allocations; the result is identical either way.
//
// It evaluates the kernel once per row of the deduplicated support-vector
// pool, then sums each machine's coefs[i]·K(sv_i, x) from its bias in
// support-vector order, exactly as Binary.Decision does: the pool only
// reuses kernel values, never re-derives them, so every decision value is
// bit-identical to the machine's own Decision.
func (mc *Multiclass) PredictWithConfidenceScratch(x []float64, sc *PredictScratch) (string, float64) {
	if len(x) != mc.dim {
		panic(fmt.Sprintf("svm: query has %d features, ensemble was trained on %d", len(x), mc.dim))
	}
	pool := mc.supportPool()
	k := sc.kernelRow(len(pool.kernels))
	for r, kern := range pool.kernels {
		k[r] = kern.Eval(pool.flat[r*mc.dim:(r+1)*mc.dim], x)
	}
	votes, margin := sc.tally(len(mc.classes))
	for p, m := range mc.models {
		s := m.bias
		for i, r := range pool.svRow[p] {
			s += m.coefs[i] * k[r]
		}
		mc.score(votes, margin, p, s)
	}
	return mc.electWinner(votes, margin)
}

// PredictGram classifies a sample from its precomputed kernel row against
// the ensemble's training set: kRow[q] must equal K(query, x_q) for every
// training sample q. It returns exactly what Predict would — same votes,
// margins and tie-breaks, built from bit-identical kernel values — without
// evaluating the kernel against any support vector, so callers holding a
// full Gram matrix (cross-validation cells) classify by indexing rows they
// already paid for. Valid on freshly-trained ensembles and on models saved
// by this version (the framed format persists the Gram index); ensembles
// loaded from older files panic with a descriptive message instead of
// silently returning bias-only votes.
func (mc *Multiclass) PredictGram(kRow []float64) string {
	return mc.PredictGramScratch(kRow, nil)
}

// PredictGramScratch is PredictGram with caller-owned election buffers —
// the form the tuning loop uses so classifying a held-out fold allocates
// nothing per sample.
func (mc *Multiclass) PredictGramScratch(kRow []float64, sc *PredictScratch) string {
	if mc.pairIdx == nil {
		panic("svm: ensemble has no Gram index (loaded from a pre-index model file); re-save the model or predict with PredictWithConfidence")
	}
	votes, margin := sc.tally(len(mc.classes))
	for p := range mc.models {
		mc.score(votes, margin, p, mc.models[p].decisionGram(kRow, mc.pairIdx[p]))
	}
	label, _ := mc.electWinner(votes, margin)
	return label
}

// score folds pair p's decision value into the election tallies: the sign
// casts the vote, the magnitude accumulates into both classes' margins.
func (mc *Multiclass) score(votes []int, margin []float64, p int, d float64) {
	if d >= 0 {
		votes[mc.pairA[p]]++
	} else {
		votes[mc.pairB[p]]++
	}
	margin[mc.pairA[p]] += d
	margin[mc.pairB[p]] -= d
}

// electWinner resolves the one-vs-one election: most votes wins, ties break
// toward the larger pairwise margin sum and then the lexicographically
// earlier class, so prediction is deterministic.
func (mc *Multiclass) electWinner(votes []int, margin []float64) (string, float64) {
	best := 0
	for c := 1; c < len(mc.classes); c++ {
		if votes[c] > votes[best] ||
			(votes[c] == votes[best] && margin[c] > margin[best]) {
			best = c
		}
	}
	// A class meets k-1 opponents; winning all of them is full confidence.
	maxWins := len(mc.classes) - 1
	conf := 1.0
	if maxWins > 0 {
		conf = float64(votes[best]) / float64(maxWins)
	}
	return mc.classes[best], conf
}
