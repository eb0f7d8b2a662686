// wimi-bench regenerates the paper's evaluation: every figure of Sec. V
// plus the design-choice ablations. Run one experiment or all of them:
//
//	wimi-bench -experiment fig15
//	wimi-bench -experiment all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wimi-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wimi-bench", flag.ContinueOnError)
	var (
		name       = fs.String("experiment", "all", "experiment name (figN, ablation-*) or 'all'")
		trials     = fs.Int("trials", 0, "trials per class (0 = paper default of 20)")
		splits     = fs.Int("splits", 0, "train/test splits to average (0 = default 3)")
		seed       = fs.Int64("seed", 0, "base random seed (0 = default 1)")
		markdown   = fs.String("markdown", "", "also write a markdown report to this path")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently (experiment 'all' only)")
		workers    = fs.Int("workers", 0, "worker pool size inside each experiment (0 = GOMAXPROCS); results are identical at any setting")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this path (inspect with go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile to this path when the run finishes")
		list       = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	all := experiment.Registry()
	if *list {
		for _, n := range experiment.SortedNames(all) {
			fmt.Println(n)
		}
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("starting cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "wimi-bench: closing cpu profile:", err)
			}
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			if err := writeHeapProfile(path); err != nil {
				fmt.Fprintln(os.Stderr, "wimi-bench:", err)
			}
		}()
	}
	opt := experiment.Options{Trials: *trials, SplitSeeds: *splits, BaseSeed: *seed, Workers: *workers}
	var report *reportWriter
	if *markdown != "" {
		var err error
		report, err = newReportWriter(*markdown, opt)
		if err != nil {
			return err
		}
		defer func() {
			if err := report.close(); err != nil {
				fmt.Fprintln(os.Stderr, "wimi-bench: closing report:", err)
			}
		}()
	}
	switch {
	case *name != "all":
		r, ok := all[strings.ToLower(*name)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *name)
		}
		return runOne(*name, r, opt, report)
	case *parallel <= 1:
		for _, n := range experiment.SortedNames(all) {
			if err := runOne(n, all[n], opt, report); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	default:
		return runParallel(experiment.SortedNames(all), all, opt, report, *parallel)
	}
}

// writeHeapProfile snapshots the heap (after a forced GC, so the profile
// shows live objects rather than garbage awaiting collection) to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}

// runParallel executes experiments on a bounded worker pool. Output streams
// in the canonical order: each experiment is printed (and reported) as soon
// as it and all of its predecessors have finished, regardless of completion
// order — every experiment is an independent, deterministic computation.
func runParallel(names []string, all map[string]experiment.Runner, opt experiment.Options, report *reportWriter, workers int) error {
	type outcome struct {
		body    string
		elapsed time.Duration
		err     error
	}
	results := make([]outcome, len(names))
	done := make([]chan struct{}, len(names))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			defer close(done[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			res, err := all[name](opt)
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			results[i] = outcome{body: res.String(), elapsed: time.Since(start).Round(time.Millisecond)}
		}(i, n)
	}
	defer wg.Wait()
	for i, n := range names {
		<-done[i]
		if results[i].err != nil {
			return fmt.Errorf("%s: %w", n, results[i].err)
		}
		fmt.Println(results[i].body)
		fmt.Printf("[%s completed in %v]\n\n", n, results[i].elapsed)
		if report != nil {
			if err := report.add(n, results[i].body, results[i].elapsed); err != nil {
				return fmt.Errorf("writing report: %w", err)
			}
		}
	}
	return nil
}

func runOne(name string, r experiment.Runner, opt experiment.Options, report *reportWriter) error {
	start := time.Now()
	res, err := r(opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	fmt.Println(res)
	fmt.Printf("[%s completed in %v]\n\n", name, elapsed)
	if report != nil {
		if err := report.add(name, res.String(), elapsed); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	return nil
}

// reportWriter accumulates a markdown run record.
type reportWriter struct {
	f *os.File
}

func newReportWriter(path string, opt experiment.Options) (*reportWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating report %s: %w", path, err)
	}
	trials, splitSeeds, seed := opt.Trials, opt.SplitSeeds, opt.BaseSeed
	if trials == 0 {
		trials = 20
	}
	if splitSeeds == 0 {
		splitSeeds = 3
	}
	if seed == 0 {
		seed = 1
	}
	_, err = fmt.Fprintf(f, "# WiMi experiment run\n\nOptions: %d trials per class, %d splits, base seed %d.\n\n",
		trials, splitSeeds, seed)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &reportWriter{f: f}, nil
}

func (rw *reportWriter) add(name, body string, elapsed time.Duration) error {
	_, err := fmt.Fprintf(rw.f, "## %s\n\n```\n%s```\n\n_completed in %v_\n\n", name, body, elapsed)
	return err
}

func (rw *reportWriter) close() error {
	return rw.f.Close()
}
