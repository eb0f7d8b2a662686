// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: `go test -bench=. -benchmem` reproduces the
// whole of Sec. V (plus the ablations) and prints each result once.
//
// The measured ns/op is the cost of regenerating the experiment — useful
// for tracking the simulator and pipeline performance — while the printed
// tables are the scientific output (recorded in EXPERIMENTS.md).
package bench

import (
	"testing"

	"repro/internal/experiment"
	"repro/wimi"
)

// BenchmarkExperiments runs every experiment of experiment.Registry, in
// SortedNames order, as a sub-benchmark named after it, at the
// paper-fidelity operating point: 20 trials per class ("we repeat
// collecting the measurements 20 times"), accuracies averaged over 3
// train/test splits. Each prints its paper-style result on its first
// iteration.
func BenchmarkExperiments(b *testing.B) {
	all := experiment.Registry()
	for _, name := range experiment.SortedNames(all) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := all[name](experiment.Options{})
				if err != nil {
					b.Fatalf("%s: %v", name, err)
				}
				if i == 0 {
					b.Logf("\n%s", res)
				}
			}
		})
	}
}

// Component microbenchmarks: the pipeline's hot path.

func BenchmarkPipelineSimulateSession(b *testing.B) {
	sc := wimi.DefaultScenario()
	sc.Liquid = wimi.MustLiquid(wimi.Milk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wimi.Simulate(sc, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineExtractFeatures(b *testing.B) {
	sc := wimi.DefaultScenario()
	sc.Liquid = wimi.MustLiquid(wimi.Milk)
	session, err := wimi.Simulate(sc, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := wimi.DefaultPipelineConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wimi.ExtractFeatures(session, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineIdentify(b *testing.B) {
	var sessions []*wimi.Session
	var labels []string
	for li, name := range []string{wimi.PureWater, wimi.Honey, wimi.Oil} {
		sc := wimi.DefaultScenario()
		sc.Liquid = wimi.MustLiquid(name)
		trials, err := wimi.SimulateTrials(sc, 6, int64(li*1000+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range trials {
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	id, err := wimi.Train(sessions, labels, wimi.DefaultTrainingConfig())
	if err != nil {
		b.Fatal(err)
	}
	probe := sessions[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Identify(probe); err != nil {
			b.Fatal(err)
		}
	}
}
