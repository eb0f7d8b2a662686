package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/dsp"
	"repro/internal/dwt"
	"repro/internal/experiment"
	"repro/internal/svm"
)

// benchReport is the schema of a -bench-json record. cmd/benchdiff compares
// two of these and fails on regressions, so the fields it gates on
// (total_wall_ns, experiments[].wall_ns, micro[].ns_per_op) must stay stable.
type benchReport struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Trials     int               `json:"trials"`
	Splits     int               `json:"splits"`
	Seed       int64             `json:"seed"`
	Workers    int               `json:"workers"`
	Parallel   int               `json:"parallel"`
	TotalWall  int64             `json:"total_wall_ns"`
	Experiment []benchExperiment `json:"experiments"`
	Micro      []benchMicro      `json:"micro"`
}

type benchExperiment struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`
}

type benchMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

func buildBenchReport(opt experiment.Options, parallel int, total time.Duration, timings []expTiming, micro []benchMicro) benchReport {
	trials, splits, seed := opt.Trials, opt.SplitSeeds, opt.BaseSeed
	if trials == 0 {
		trials = 20
	}
	if splits == 0 {
		splits = 3
	}
	if seed == 0 {
		seed = 1
	}
	rep := benchReport{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Trials:     trials,
		Splits:     splits,
		Seed:       seed,
		Workers:    opt.Workers,
		Parallel:   parallel,
		TotalWall:  total.Nanoseconds(),
		Micro:      micro,
	}
	for _, t := range timings {
		rep.Experiment = append(rep.Experiment, benchExperiment{Name: t.name, WallNs: t.elapsed.Nanoseconds()})
	}
	return rep
}

func writeBenchJSON(path string, rep benchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding benchmark record: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing benchmark record: %w", err)
	}
	return nil
}

// microBenchTime is how long each component microbenchmark samples. Long
// enough to average over GC cycles, short enough that -bench-json stays a
// sub-second add-on to the full run.
var microBenchTime = 250 * time.Millisecond

// measureMicro times fn in a tight loop for roughly microBenchTime and
// reports per-operation wall time and allocation statistics (the same
// counters testing.B uses, read from runtime.MemStats).
func measureMicro(name string, fn func()) benchMicro {
	fn() // warm caches and pools before the timed window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var iters int64
	// At least one timed call: a stall before the first check would leave
	// iters at 0 and the record with an infinite ns/op JSON cannot encode.
	for iters == 0 || time.Since(start) < microBenchTime {
		fn()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchMicro{
		Name:        name,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}
}

// microBenchmarks exercises the three hot components the allocation
// overhaul targeted: the FFT plan (power-of-two and Bluestein sizes), the
// pooled wavelet-correlation denoiser, and Gram-cached SVM training; then
// SVM prediction, the warmed identification pipeline, and the serve,
// gateway and hub tiers.
func microBenchmarks() []benchMicro {
	rng := rand.New(rand.NewSource(99))

	fftSignal := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return x
	}
	src64, dst64 := fftSignal(64), make([]complex128, 64)
	plan64 := dsp.NewPlan(64)
	src90, dst90 := fftSignal(90), make([]complex128, 90)
	plan90 := dsp.NewPlan(90)

	noisy := make([]float64, 300)
	for i := range noisy {
		noisy[i] = rng.NormFloat64()
		if i%37 == 0 {
			noisy[i] += 25 // impulses, so the suppress loop does real work
		}
	}

	var x [][]float64
	var labels []string
	classes := []string{"water", "honey", "oil", "milk"}
	for ci, c := range classes {
		for s := 0; s < 12; s++ {
			v := make([]float64, 8)
			for d := range v {
				v[d] = float64(ci) + 0.3*rng.NormFloat64()
			}
			x = append(x, v)
			labels = append(labels, c)
		}
	}

	micro := []benchMicro{
		measureMicro("fft-plan-transform-64", func() {
			plan64.Transform(dst64, src64)
		}),
		measureMicro("fft-plan-transform-bluestein-90", func() {
			plan90.Transform(dst90, src90)
		}),
		measureMicro("dwt-correlation-denoise-300", func() {
			if _, err := dwt.CorrelationDenoise(noisy, &dwt.DenoiseConfig{Wavelet: dwt.DB4}); err != nil {
				panic(err)
			}
		}),
		measureMicro("svm-train-multiclass", func() {
			if _, err := svm.TrainMulticlass(x, labels, svm.RBFKernel{Gamma: 0.5}, svm.Config{C: 10, Seed: 1}); err != nil {
				panic(err)
			}
		}),
		measureMicro("svm-autotune", func() {
			// A reduced 2×2 (C, γ) grid over 3 folds: the same shape as the
			// AutoTune path behind core.IdentifierConfig, sized to keep one
			// op in the low milliseconds.
			tuneGrid := []svm.GridPoint{
				{C: 1, Gamma: 0.2}, {C: 1, Gamma: 1},
				{C: 10, Gamma: 0.2}, {C: 10, Gamma: 1},
			}
			if _, err := svm.TuneRBF(x, labels, tuneGrid, 3, 1, 0); err != nil {
				panic(err)
			}
		}),
	}
	micro = append(micro, svmPredictMicro(x, labels))
	micro = append(micro, serveMicroBenchmarks()...)
	micro = append(micro, gatewayMicroBenchmarks()...)
	return append(micro, hubMicroBenchmarks()...)
}

// svmPredictMicro isolates the classifier stage: eight queries classified
// one at a time over the deduplicated support-vector pool with
// caller-owned scratch, so the number is pure kernel arithmetic.
func svmPredictMicro(x [][]float64, labels []string) benchMicro {
	model, err := svm.TrainMulticlass(x, labels, svm.RBFKernel{Gamma: 0.5}, svm.Config{C: 10, Seed: 1})
	if err != nil {
		panic(err)
	}
	// One query per class plus repeats.
	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = x[(i*len(x)/8+i)%len(x)]
	}
	var psc svm.PredictScratch
	return measureMicro("svm-predict-seq8", func() {
		for _, q := range queries {
			model.PredictWithConfidenceScratch(q, &psc)
		}
	})
}
