package svm

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// decisionElection is the reference prediction: every machine's own
// Binary.Decision folded through the election. It returns the tallies too,
// so a test can compare margins bit for bit.
func decisionElection(mc *Multiclass, x []float64) (string, float64, []int, []float64) {
	votes := make([]int, len(mc.classes))
	margin := make([]float64, len(mc.classes))
	for p, m := range mc.models {
		mc.score(votes, margin, p, m.Decision(x))
	}
	label, conf := mc.electWinner(votes, margin)
	return label, conf, votes, margin
}

// checkMatchesDecision asserts that the pooled prediction of every query —
// with one reused scratch, and with none — equals the per-machine Decision
// election: the label, the confidence, and every class's votes and margin,
// float for float.
func checkMatchesDecision(t *testing.T, what string, mc *Multiclass, queries [][]float64) {
	t.Helper()
	var sc PredictScratch
	for i, q := range queries {
		wantL, wantC, wantV, wantM := decisionElection(mc, q)
		gotL, gotC := mc.PredictWithConfidenceScratch(q, &sc)
		if gotL != wantL || math.Float64bits(gotC) != math.Float64bits(wantC) {
			t.Fatalf("%s query %d: pooled (%s, %v), per-machine Decision (%s, %v)", what, i, gotL, gotC, wantL, wantC)
		}
		for c := range wantV {
			if sc.votes[c] != wantV[c] || math.Float64bits(sc.margin[c]) != math.Float64bits(wantM[c]) {
				t.Fatalf("%s query %d class %s: pooled votes %d margin %v, per-machine %d and %v",
					what, i, mc.classes[c], sc.votes[c], sc.margin[c], wantV[c], wantM[c])
			}
		}
		if l, c := mc.PredictWithConfidence(q); l != gotL || math.Float64bits(c) != math.Float64bits(gotC) {
			t.Fatalf("%s query %d: nil scratch (%s, %v), reused scratch (%s, %v)", what, i, l, c, gotL, gotC)
		}
	}
}

// predictQueries is the training set and query batch the
// prediction-contract tests share: 4 classes × 12 samples, 16 held-out queries plus 4 training
// samples (K(sv, sv) is the kernel's extreme).
func predictQueries() (x [][]float64, labels []string, queries [][]float64) {
	classes := []string{"a", "b", "c", "d"}
	x, labels = clusteredData(12, classes, 6, 17)
	queries, _ = clusteredData(4, classes, 6, 99)
	return x, labels, append(queries, x[:4]...)
}

// TestPredictBatchBitIdenticalSequential pins the prediction contract: a
// batch of queries run through the pooled path, one after another with one
// reused scratch, equals an election over each machine's own
// Binary.Decision, margins bit for bit, for every kernel, at any training
// worker count, and after a save and reload. The name dates from
// Multiclass.PredictBatch; the pooled single-query path is what remains.
func TestPredictBatchBitIdenticalSequential(t *testing.T) {
	x, labels, queries := predictQueries()

	for _, kernel := range []Kernel{RBFKernel{Gamma: 0.5}, LinearKernel{}, PolyKernel{Degree: 3, Coef: 1}} {
		for _, workers := range []int{1, 4} {
			mc, err := TrainMulticlass(x, labels, kernel, Config{C: 10, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kernel.Name(), workers, err)
			}
			checkMatchesDecision(t, fmt.Sprintf("%s workers=%d", kernel.Name(), workers), mc, queries)
			if workers > 1 {
				continue
			}
			var buf bytes.Buffer
			if err := mc.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadMulticlass(&buf)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesDecision(t, kernel.Name()+" reloaded", loaded, queries)
		}
	}
}

// TestPredictBatchMixedKernelFallback forces a mixed-kernel ensemble (only
// constructible by hand). Such an ensemble once fell back to per-machine
// evaluation; the pool now keys its rows by kernel, so it takes the pooled
// path and must predict exactly what that fallback did: the per-machine
// Decision election.
func TestPredictBatchMixedKernelFallback(t *testing.T) {
	x, labels, queries := predictQueries()
	mc, err := TrainMulticlass(x, labels, RBFKernel{Gamma: 0.5}, Config{C: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mc.models[0].kernel = LinearKernel{}
	mc.models[1].kernel = PolyKernel{Degree: 2, Coef: 1}
	checkMatchesDecision(t, "mixed kernels", mc, queries)
}

// TestPredictConcurrent hammers one shared ensemble from many goroutines
// (each with its own scratch) so -race checks the lazy pool build and the
// read-only pool sharing.
func TestPredictConcurrent(t *testing.T) {
	classes := []string{"a", "b", "c"}
	x, labels := clusteredData(10, classes, 5, 7)
	mc, err := TrainMulticlass(x, labels, RBFKernel{Gamma: 0.8}, Config{C: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := clusteredData(3, classes, 5, 41)
	wantL := make([]string, len(queries))
	wantC := make([]float64, len(queries))
	for i, q := range queries {
		wantL[i], wantC[i], _, _ = decisionElection(mc, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc PredictScratch
			for iter := 0; iter < 20; iter++ {
				for i, q := range queries {
					gotL, gotC := mc.PredictWithConfidenceScratch(q, &sc)
					if gotL != wantL[i] || gotC != wantC[i] {
						t.Errorf("query %d: concurrent (%s, %v), want (%s, %v)", i, gotL, gotC, wantL[i], wantC[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSupportPoolDedup checks the pool stores each distinct (kernel,
// support vector) once: one-vs-one machines share training samples, so the
// pooled row count must not exceed the training-set size even though the
// per-machine SV lists overlap, and every mapped row must hold exactly the
// machine's support vector under the machine's kernel.
func TestSupportPoolDedup(t *testing.T) {
	classes := []string{"a", "b", "c", "d"}
	x, labels := clusteredData(12, classes, 6, 17)
	check := func(what string, mc *Multiclass, maxRows int) {
		t.Helper()
		pool := mc.supportPool()
		rows := len(pool.kernels)
		total := 0
		for _, m := range mc.models {
			total += len(m.vectors)
		}
		if rows > maxRows {
			t.Fatalf("%s: pool has %d rows, want at most %d", what, rows, maxRows)
		}
		if rows >= total {
			t.Fatalf("%s: pool did not dedup: %d rows from %d machine-local SVs", what, rows, total)
		}
		if len(pool.flat) != rows*mc.dim {
			t.Fatalf("%s: flat backing %d floats, want rows×dim = %d", what, len(pool.flat), rows*mc.dim)
		}
		for pi, m := range mc.models {
			for i, v := range m.vectors {
				r := int(pool.svRow[pi][i])
				if pool.kernels[r] != m.kernel {
					t.Fatalf("%s: machine %d sv %d: pool row %d has kernel %s, machine %s",
						what, pi, i, r, pool.kernels[r].Name(), m.kernel.Name())
				}
				row := pool.flat[r*mc.dim : (r+1)*mc.dim]
				for d := range v {
					if math.Float64bits(row[d]) != math.Float64bits(v[d]) {
						t.Fatalf("%s: machine %d sv %d: pool row %d differs at dim %d", what, pi, i, r, d)
					}
				}
			}
		}
	}
	mc, err := TrainMulticlass(x, labels, RBFKernel{Gamma: 0.5}, Config{C: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("uniform", mc, len(x))
	mixed, err := TrainMulticlass(x, labels, RBFKernel{Gamma: 0.5}, Config{C: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mixed.models[0].kernel = LinearKernel{}
	check("mixed", mixed, len(x)+len(mixed.models[0].vectors))
}

// TestLoadedModelKeepsGramIndex pins the serialize round-trip fix: a model
// saved and re-loaded keeps its Gram index, so PredictGram works and
// matches both the fresh ensemble and direct prediction.
func TestLoadedModelKeepsGramIndex(t *testing.T) {
	classes := []string{"a", "b", "c"}
	x, labels := clusteredData(10, classes, 5, 23)
	kernel := RBFKernel{Gamma: 0.6}
	mc, err := TrainMulticlass(x, labels, kernel, Config{C: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMulticlass(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.pairIdx == nil {
		t.Fatal("loaded model lost its Gram index")
	}
	queries, _ := clusteredData(3, classes, 5, 77)
	// Gram rows over the original training set: kRow[q] = K(query, x[q]).
	for _, q := range queries {
		kRow := make([]float64, len(x))
		for j := range x {
			kRow[j] = kernel.Eval(q, x[j])
		}
		if got, want := loaded.PredictGram(kRow), mc.PredictGram(kRow); got != want {
			t.Fatalf("loaded PredictGram %s, fresh %s", got, want)
		}
		if got, want := loaded.PredictGram(kRow), loaded.Predict(q); got != want {
			t.Fatalf("loaded PredictGram %s disagrees with direct Predict %s", got, want)
		}
	}
}

// TestPredictGramPanicsWithoutIndex pins the failure mode for models from
// files that predate the persisted Gram index: a descriptive panic, not
// bias-only votes.
func TestPredictGramPanicsWithoutIndex(t *testing.T) {
	classes := []string{"a", "b"}
	x, labels := clusteredData(8, classes, 4, 5)
	mc, err := TrainMulticlass(x, labels, LinearKernel{}, Config{C: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc.pairIdx = nil // what loading a pre-index file leaves behind
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PredictGram without an index did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Gram index") {
			t.Fatalf("panic %v does not explain the missing index", r)
		}
	}()
	mc.PredictGram(make([]float64, len(x)))
}

// BenchmarkPredictSeq8 isolates the classifier stage: eight queries
// classified one at a time over the deduplicated support-vector pool with
// caller-owned scratch, so the number is pure kernel arithmetic.
func BenchmarkPredictSeq8(b *testing.B) {
	x, labels := clusteredData(12, []string{"water", "honey", "oil", "milk"}, 8, 99)
	mc, err := TrainMulticlass(x, labels, RBFKernel{Gamma: 0.5}, Config{C: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// One query per class plus repeats.
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = x[(i*len(x)/8+i)%len(x)]
	}
	var sc PredictScratch
	mc.PredictWithConfidenceScratch(queries[0], &sc) // build the pool before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			mc.PredictWithConfidenceScratch(q, &sc)
		}
	}
}
