package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

// errorRatioBound is how much error_ratio may rise, absolutely, before compare
// calls it worse. It has no entry in BENCHMARK.json (see extraUnits).
const errorRatioBound = 0.001

// runCompare implements "compare A B": A is the base, B the candidate, each a
// result file or a directory of them (a set of runs). For every end-to-end
// metric of BENCHMARK.json and every workload both sides ran untraced, it
// prints better, same, worse or unresolved, and fails if anything is worse.
func runCompare(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A B (each a result file or a directory of result files)")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	a, err := loadValues(args[0])
	if err != nil {
		return err
	}
	b, err := loadValues(args[1])
	if err != nil {
		return err
	}
	metrics := append(append([]metricSpec(nil), spec.EndToEnd...),
		metricSpec{Name: "error_ratio", Unit: "ratio", Better: "lower", Bound: errorRatioBound})
	present := map[string]bool{}
	for w := range a {
		if b[w] != nil {
			present[w] = true
		}
	}
	if len(present) == 0 {
		return fmt.Errorf("no workload has untraced runs on both sides")
	}
	fmt.Fprintf(out, "%-14s %-17s %5s %14s %14s %9s %9s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "change", "spread", "verdict")
	worse := 0
	for _, w := range sortedWorkloads(spec, present) {
		for _, m := range metrics {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			absolute := m.Name == "error_ratio"
			verdict, change, spread := judge(va, vb, m, absolute)
			if verdict == "worse" {
				worse++
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(out, "%-14s %-17s %2d/%-2d %14s %14s %9s %9s  %s\n", w, m.Name, len(va), len(vb),
				strconv.FormatFloat(ma, 'g', 6, 64), strconv.FormatFloat(mb, 'g', 6, 64),
				share(change, absolute), share(spread, absolute), verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse beyond their bound", worse)
	}
	return nil
}

func share(x float64, absolute bool) string {
	if absolute {
		return strconv.FormatFloat(x, 'g', 3, 64)
	}
	return fmt.Sprintf("%+.1f%%", 100*x)
}

// judge compares candidate runs b against base runs a for one metric,
// following the choosing-metrics guide (sections 6.5 and 8):
//   - worse: b's median is worse than a's by more than the bound, and either
//     the runs' own spread (quartile distance over median, the wider of the
//     two sides) is within the bound, or every b run is worse than every a
//     run, or the change exceeds the bound plus the spread;
//   - unresolved: otherwise, when the spread exceeds the bound, unless every
//     b run beats every a run, which is better;
//   - better: b's median beats a's by more than the spread and b wins at
//     least nine tenths of all (a, b) run pairs;
//   - same: anything else.
//
// change is b's median relative to a's (absolute for error_ratio), positive
// when b reads higher.
func judge(a, b []float64, m metricSpec, absolute bool) (verdict string, change, spread float64) {
	a1, ma, a3 := quartiles(a)
	b1, mb, b3 := quartiles(b)
	change, spread = mb-ma, math.Max(a3-a1, b3-b1)
	if !absolute {
		change /= math.Abs(ma)
		spread /= math.Abs(ma)
	}
	lower := m.Better == "lower"
	worseBy := change
	if !lower {
		worseBy = -change
	}
	beats := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
	wins, losses, pairs := 0, 0, 0
	for _, x := range b {
		for _, y := range a {
			pairs++
			if beats(x, y) {
				wins++
			}
			if beats(y, x) {
				losses++
			}
		}
	}
	noisy := spread > m.Bound
	switch {
	case worseBy > m.Bound && (!noisy || losses == pairs || worseBy > m.Bound+spread):
		return "worse", change, spread
	case noisy && wins == pairs:
		return "better", change, spread
	case noisy:
		return "unresolved", change, spread
	case -worseBy > spread && float64(wins) >= 0.9*float64(pairs) && wins > 0:
		return "better", change, spread
	default:
		return "same", change, spread
	}
}

// sortedWorkloads lists the present workloads in BENCHMARK.json order, then
// any the file does not name.
func sortedWorkloads(spec *benchSpec, present map[string]bool) []string {
	var out []string
	for _, w := range spec.Workloads {
		if present[w.Name] {
			out = append(out, w.Name)
		}
	}
	var rest []string
	for name := range present {
		if !slices.Contains(out, name) {
			rest = append(rest, name)
		}
	}
	slices.Sort(rest)
	return append(out, rest...)
}

// loadValues reads every untraced run of a result file, or of every result
// file in a directory, as workload → metric → one value per run.
func loadValues(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("reading %s: %w", f, err)
		}
		for _, r := range rf.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Values {
				out[r.Workload][name] = append(out[r.Workload][name], v)
			}
		}
	}
	return out, nil
}
