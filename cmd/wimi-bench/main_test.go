package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

func TestSortedNamesOrdering(t *testing.T) {
	names := experiment.SortedNames(experiment.Registry())
	// Figures come first, in numeric order.
	var figIdx []int
	for i, n := range names {
		if strings.HasPrefix(n, "fig") {
			figIdx = append(figIdx, i)
		}
	}
	if len(figIdx) != 17 {
		t.Fatalf("%d figure experiments, want 17", len(figIdx))
	}
	for i := 1; i < len(figIdx); i++ {
		if figIdx[i] != figIdx[i-1]+1 {
			t.Fatal("figures not contiguous at the front")
		}
	}
	if names[0] != "fig2" || names[1] != "fig3" || names[2] != "fig6" {
		t.Errorf("figure order wrong: %v", names[:3])
	}
	// Ablations alphabetical after figures.
	rest := names[len(figIdx):]
	for i := 1; i < len(rest); i++ {
		if rest[i-1] >= rest[i] {
			t.Errorf("non-figure experiments not sorted: %q >= %q", rest[i-1], rest[i])
		}
	}
}

func TestRunSingleExperimentWithReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.md")
	err := run([]string{"-experiment", "fig2", "-markdown", report})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "## fig2") || !strings.Contains(out, "Fig 2") {
		t.Errorf("report missing content:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "fig99"}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestEveryExperimentRegistered(t *testing.T) {
	all := experiment.Registry()
	// Every paper figure with an evaluation number must be present.
	for _, fig := range []string{
		"fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21",
	} {
		if _, ok := all[fig]; !ok {
			t.Errorf("experiment %s not registered", fig)
		}
	}
	// And the runners must actually work with cheap options.
	opt := experiment.Options{Trials: 4, SplitSeeds: 1, BaseSeed: 1}
	for _, name := range []string{"fig2", "fig3", "fig6", "fig7"} {
		if _, err := all[name](opt); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunParallelMatchesSerialOrder(t *testing.T) {
	// A cheap subset in parallel: output order must stay canonical and the
	// report must contain every experiment.
	report := filepath.Join(t.TempDir(), "par.md")
	err := run([]string{
		"-experiment", "all", "-parallel", "4",
		"-trials", "3", "-splits", "1", "-markdown", report,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	// Canonical order: fig2 before fig15 before ablations before extensions.
	i2 := strings.Index(out, "## fig2\n")
	i15 := strings.Index(out, "## fig15")
	iAbl := strings.Index(out, "## ablation-")
	iExt := strings.Index(out, "## ext-")
	if i2 < 0 || i15 < 0 || iAbl < 0 || iExt < 0 {
		t.Fatalf("report missing sections (fig2=%d fig15=%d abl=%d ext=%d)", i2, i15, iAbl, iExt)
	}
	if !(i2 < i15 && i15 < iAbl && iAbl < iExt) {
		t.Errorf("report out of canonical order: fig2=%d fig15=%d abl=%d ext=%d", i2, i15, iAbl, iExt)
	}
}

func TestBenchJSONRecord(t *testing.T) {
	old := microBenchTime
	microBenchTime = 2 * time.Millisecond
	defer func() { microBenchTime = old }()
	path := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{
		"-experiment", "fig7", "-trials", "3", "-splits", "1",
		"-workers", "2", "-bench-json", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if len(rep.Experiment) != 1 || rep.Experiment[0].Name != "fig7" {
		t.Fatalf("experiments = %+v, want exactly fig7", rep.Experiment)
	}
	if rep.TotalWall <= 0 || rep.Experiment[0].WallNs < 0 {
		t.Errorf("non-positive wall times: total=%d fig7=%d", rep.TotalWall, rep.Experiment[0].WallNs)
	}
	if rep.Trials != 3 || rep.Splits != 1 || rep.Workers != 2 {
		t.Errorf("options not recorded: %+v", rep)
	}
	if len(rep.Micro) != 16 {
		t.Fatalf("%d microbenchmarks, want 16 (5 component + 1 predict + 3 serve + 2 pipeline + 3 gateway + 2 hub)", len(rep.Micro))
	}
	for _, m := range rep.Micro {
		if m.NsPerOp <= 0 {
			t.Errorf("micro %s has ns/op %v", m.Name, m.NsPerOp)
		}
	}
	// The serving path must be in the record so benchdiff gates it.
	serveNames := map[string]bool{}
	for _, m := range rep.Micro {
		serveNames[m.Name] = true
	}
	for _, want := range []string{
		"core-identify-pooled",
		"pipeline-identify-20", "pipeline-identify-100",
		"svm-predict-seq8",
		"BenchmarkServeIdentify/single",
		"BenchmarkServeIdentify/batched8-cold",
		"BenchmarkGatewayRelay/single",
		"BenchmarkGatewayRelay/batched8",
		"BenchmarkGatewayRelay/coalesced",
		"BenchmarkHubStreams/pass-32x240",
		"BenchmarkHubStreams/stride-heavy",
	} {
		if !serveNames[want] {
			t.Errorf("micro record is missing %s", want)
		}
	}
	// The FFT plan transform must stay allocation-free in steady state —
	// the same guarantee TestPlanTransformZeroAllocs pins, re-checked here
	// on the shipped measurement path.
	for _, m := range rep.Micro[:2] {
		if m.AllocsPerOp > 0.5 {
			t.Errorf("micro %s allocates %.2f per op, want 0", m.Name, m.AllocsPerOp)
		}
	}
}
