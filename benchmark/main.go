// Command wimi-benchmark measures whole user journeys through the WiMi
// serving tiers, checking every answer against an in-process oracle:
// identify requests through the real wimi-serve and wimi-gateway binaries,
// and CSI packet streams through the monitorhub fleet monitor.
//
// Run it from the repository root through run.sh, which builds it and keeps
// every build product under .bench_build/:
//
//	bash benchmark/run.sh -seed 1                      # all four workloads
//	bash benchmark/run.sh -seed 1 -trace               # the per-layer split
//	bash benchmark/run.sh -workload serve-paced -seed 3 -seconds 20 -trace 0
//	bash benchmark/run.sh compare setA/ setB/          # bounds from BENCHMARK.json
//
// Each workload runs in its own child process (the harness re-executes
// itself), so CPU time, peak RSS and GC state belong to that workload alone.
// The harness prints one "<workload> <metric> <value> <unit>" line per
// metric, writes a result file with the run's provenance, and ends its output
// with one JSON object: correct, attempted, failed and the metrics of
// BENCHMARK.json (end-to-end by default, per-layer with -trace). It exits
// non-zero when an answer differs from the oracle or a validity gate fails.
// README.md documents the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	args := normalizeArgs(os.Args[1:])
	var err error
	if len(args) > 0 && args[0] == "compare" {
		err = runCompare(args[1:], os.Stdout)
	} else {
		err = run(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wimi-benchmark:", err)
		os.Exit(1)
	}
}

// workload is one named traffic mix; exactly one of http and hub is set.
type workload struct {
	name   string
	warmup time.Duration // unmeasured warm-up before each measured window
	http   *httpParams
	hub    *hubParams
}

// workloads are the benchmark's traffic mixes. README.md records why each
// was chosen.
var workloads = []workload{
	{name: "serve-paced", warmup: 2 * time.Second,
		http: &httpParams{target: "serve", rate: 100, clients: 2, sessions: 512, packets: 20, inputs: "paced"}},
	{name: "serve-long", warmup: 2 * time.Second,
		http: &httpParams{target: "serve", clients: 2, sessions: 256, packets: 100, reloadEvery: 2 * time.Second, inputs: "long"}},
	{name: "cluster-paced", warmup: 2 * time.Second,
		http: &httpParams{target: "cluster", rate: 100, clients: 2, sessions: 512, packets: 20, inputs: "paced"}},
	// The hub's warm-up covers the staggered stream starts (one 2.6s pass)
	// and the first quiet prefix, so the window sees the steady fleet.
	{name: "hub-fleet", warmup: 5 * time.Second,
		hub: &hubParams{streams: 256, quiet: 60, target: 200, interval: 10 * time.Millisecond,
			pollEvery: 100 * time.Millisecond, pollTail: 64}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) run(env *runEnv) (*runResult, error) {
	env.warmup = w.warmup
	if w.hub != nil {
		return runHub(env, *w.hub)
	}
	return runHTTP(env, *w.http)
}

// runEnv is what a child process needs to run one workload.
type runEnv struct {
	workload string
	seed     int64
	warmup   time.Duration
	window   time.Duration
	trace    bool
	binDir   string // the built wimi-serve and wimi-gateway
	model    string // where the fixture model is written
	spans    string // where a traced run writes its spans; empty: nowhere
}

// runResult is one workload run, as a child reports it.
type runResult struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Trace         bool               `json:"trace"`
	WarmupS       float64            `json:"warmup_s"`
	WindowS       float64            `json:"window_s"`
	Params        map[string]any     `json:"params"`
	Gomaxprocs    int                `json:"gomaxprocs"`
	SUTGomaxprocs map[string]int     `json:"sut_gomaxprocs"`
	Attempted     int64              `json:"attempted"`
	Failed        int64              `json:"failed"`
	Mismatches    int64              `json:"mismatches"`
	Problems      []string           `json:"problems,omitempty"`
	Values        map[string]float64 `json:"values"`
}

func newResult(env *runEnv, params map[string]any) *runResult {
	return &runResult{
		Workload: env.workload, Seed: env.seed, Trace: env.trace,
		WarmupS: env.warmup.Seconds(), WindowS: env.window.Seconds(),
		Params: params, Gomaxprocs: runtime.GOMAXPROCS(0), SUTGomaxprocs: map[string]int{},
		Values: map[string]float64{},
	}
}

// maxProblems bounds how many problems a result lists individually.
const maxProblems = 10

// problem records a failed correctness check or validity gate: the run is
// not correct.
func (r *runResult) problem(format string, args ...any) {
	switch {
	case len(r.Problems) < maxProblems:
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	case len(r.Problems) == maxProblems:
		r.Problems = append(r.Problems, "... and more")
	}
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 }

// finishSpans checks that no span was lost and writes the spans out.
func finishSpans(res *runResult, buf *spanBuf, path string) error {
	if n := buf.dropped.Load(); n > 0 {
		res.problem("span buffer full: %d spans lost", n)
	}
	if path == "" {
		return nil
	}
	return buf.writeJSONL(path)
}

// defaultGOMAXPROCS is the GOMAXPROCS a Go binary started with this
// process's environment runs with: $GOMAXPROCS when set, else the CPU count.
func defaultGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// normalizeArgs joins "-trace 0" and "--trace 1" into "-trace=0", the form
// the flag package accepts for a boolean flag; a bare -trace still works.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// buildDir holds everything the benchmark builds and writes, relative to the
// repository root.
const buildDir = ".bench_build"

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wimi-benchmark", flag.ContinueOnError)
	var (
		only    = fs.String("workload", "", "run only this workload (default: every workload)")
		seed    = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds = fs.Int("seconds", 0, "measured window per workload, in seconds (0: run_seconds of BENCHMARK.json)")
		traced  = fs.Bool("trace", false, "record spans and report the per-layer metrics instead of the end-to-end ones")
		child   = fs.String("child", "", "internal: run this one workload in this process")
		binDir  = fs.String("bin", "", "internal: directory holding the built binaries")
		model   = fs.String("model", "", "internal: path the fixture model is written to")
		spans   = fs.String("spans", "", "internal: path a traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *child != "" {
		w, ok := findWorkload(*child)
		if !ok {
			return fmt.Errorf("unknown workload %q", *child)
		}
		env := &runEnv{workload: w.name, seed: *seed, window: time.Duration(*seconds) * time.Second,
			trace: *traced, binDir: *binDir, model: *model, spans: *spans}
		res, err := w.run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for name, v := range res.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.problem("%s is not a number (%v)", name, v)
				delete(res.Values, name)
			}
		}
		return json.NewEncoder(out).Encode(res)
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which the harness does not define", w.Name)
		}
		if *only == "" || *only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", *only)
	}
	bin := filepath.Join(buildDir, "bin")
	results := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	if err := buildBinaries(bin); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Provenance: collectProvenance(*seed, *traced)}
	for _, name := range names {
		childArgs := []string{"-child", name, "-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace=" + strconv.FormatBool(*traced),
			"-bin", bin, "-model", filepath.Join(buildDir, "fixture", "model.json")}
		if *traced {
			childArgs = append(childArgs, "-spans", filepath.Join(results, "spans-"+name+".jsonl"))
		}
		res, err := runChildProcess(self, childArgs)
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		printLines(out, res, spec)
		for _, p := range res.Problems {
			fmt.Fprintf(os.Stderr, "wimi-benchmark: %s: %s\n", name, p)
		}
		file.Runs = append(file.Runs, *res)
	}

	label := *only
	if label == "" {
		label = "all"
	}
	suffix := ""
	if *traced {
		suffix = "-trace"
	}
	outPath := filepath.Join(results, fmt.Sprintf("%s-seed%d%s.json", label, *seed, suffix))
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wimi-benchmark: results written to %s\n", outPath)
	sum, err := summarize(file.Runs, spec, *traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !sum.Correct {
		return fmt.Errorf("the run is not correct; see the problems above")
	}
	return nil
}

// buildBinaries builds the system under test from the checkout's sources.
func buildBinaries(binDir string) error {
	for _, name := range []string{"wimi-serve", "wimi-gateway"} {
		cmd := exec.Command("go", "build", "-buildvcs=false", "-o", filepath.Join(binDir, name), "./cmd/"+name)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
	}
	return nil
}

// runChildProcess runs one workload in a fresh copy of this program and
// returns the result it prints.
func runChildProcess(self string, args []string) (*runResult, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("decoding the child's result: %w", err)
	}
	return &res, nil
}

// extraUnits are the units of the printed values BENCHMARK.json does not
// list. error_ratio is 0 on a healthy run, and the benchmark contract wants
// bounded metrics that never read 0, so failures reach the gate through the
// failed count instead; compare still bounds it, absolutely. The diagnostics
// are not bounded: the tail percentiles do not repeat within any bound the
// benchmark may set on a shared machine (README.md, Bounds).
var extraUnits = map[string]string{
	"error_ratio":          "ratio",
	"diag.latency_p90_ms":  "ms",
	"diag.latency_p99_ms":  "ms",
	"diag.samples":         "count",
	"diag.freeze_shift_ms": "ms",
}

// printLines prints every value of a run as "<workload> <metric> <value>
// <unit>": the end-to-end metrics, the error ratio, the per-layer metrics,
// then the diagnostics.
func printLines(w io.Writer, r *runResult, spec *benchSpec) {
	units := map[string]string{}
	var order []string
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
		order = append(order, m.Name)
	}
	order = append(order, "error_ratio")
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
		order = append(order, m.Name)
	}
	order = append(order, "diag.latency_p90_ms", "diag.latency_p99_ms", "diag.samples", "diag.freeze_shift_ms")
	for k, u := range extraUnits {
		units[k] = u
	}
	for _, name := range order {
		if v, ok := r.Values[name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(v, 'g', -1, 64), units[name])
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the final line: every end-to-end metric of BENCHMARK.json,
// or with traced every per-layer one. A per-layer metric of a layer the
// workload does not exercise (the gateway on serve-paced, say) reads 0. With
// several workloads each name is prefixed by "<workload>.".
func summarize(runs []runResult, spec *benchSpec, traced bool) (summary, error) {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range list {
			v, ok := r.Values[m.Name]
			if !ok && !traced {
				return s, fmt.Errorf("workload %s did not report %s", r.Workload, m.Name)
			}
			key := m.Name
			if len(runs) > 1 {
				key = r.Workload + "." + m.Name
			}
			s.Metrics[key] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	return s, nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the metric
// names, units, directions and bounds are defined there once.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &spec, nil
}

// resultFile is what one invocation writes: its provenance and one result
// per workload run.
type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runResult `json:"runs"`
}

// provenance records the machine shape, the source and the run settings.
// Each run adds its own parameters, warm-up, window and the GOMAXPROCS of
// its processes.
type provenance struct {
	Date       string   `json:"date"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	CPUModel   string   `json:"cpu_model"`
	Nproc      int      `json:"nproc"`
	Gomaxprocs int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	Args       []string `json:"args"`
}

func collectProvenance(seed int64, traced bool) provenance {
	return provenance{
		Date:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Nproc:      runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Trace:      traced,
		Args:       os.Args[1:],
	}
}

// commit names the source under test: the build's VCS stamp, else git's HEAD
// when the working directory is a git checkout, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			out := strings.TrimSpace(string(rev))
			if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
				out += "+modified"
			}
			return out
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
