package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// reduced shrinks a workload to a load a one-second window can check.
func reduced(w workload) workload {
	w.warmup = 250 * time.Millisecond
	if w.http != nil {
		p := *w.http
		if p.rate > 0 {
			p.rate = 50
		}
		p.sessions = 6
		if p.reloadEvery > 0 {
			p.reloadEvery = 300 * time.Millisecond
		}
		w.http = &p
	}
	if w.hub != nil {
		p := *w.hub
		// A 4ms interval makes a template pass 1.04s, so every stream starts
		// within it and its first appearance completes 0.34s after its start.
		p.streams = 16
		p.interval = 4 * time.Millisecond
		w.hub = &p
		w.warmup = 500 * time.Millisecond
	}
	return w
}

// TestSmokeEveryWorkload runs each workload for one second at reduced load
// against freshly built binaries, untraced and, where the traced path
// differs most, traced, and checks that every answer was right and every
// metric was measured.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the serving binaries")
	}
	start := time.Now()
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	for _, name := range []string{"wimi-serve", "wimi-gateway"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, name), "./cmd/"+name)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		trace bool
	}{
		{"serve-paced", false}, {"serve-long", false}, {"cluster-paced", false}, {"hub-fleet", false},
		{"cluster-paced", true}, {"hub-fleet", true},
	}
	for _, tc := range cases {
		w, ok := findWorkload(tc.name)
		if !ok {
			t.Fatalf("no workload %s", tc.name)
		}
		env := &runEnv{workload: tc.name, seed: 1, window: time.Second,
			trace: tc.trace, binDir: bin, model: filepath.Join(dir, "model.json"),
			spans: filepath.Join(dir, tc.name+".jsonl")}
		res, err := reduced(w).run(env)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", tc.name, tc.trace, err)
		}
		if !res.correct() || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("%s (trace %v): correct %v, %d failed of %d, problems %q",
				tc.name, tc.trace, res.correct(), res.Failed, res.Attempted, res.Problems)
		}
		want := spec.EndToEnd
		if tc.trace {
			want = []metricSpec{{Name: "trace.overhead_ratio"}, {Name: "core.features_us"}, {Name: "core.classify_us"}}
			if _, err := os.Stat(env.spans); err != nil {
				t.Errorf("%s: no spans written: %v", tc.name, err)
			}
		}
		for _, m := range want {
			v, ok := res.Values[m.Name]
			if !ok || (!tc.trace && v <= 0) {
				t.Errorf("%s (trace %v): %s = %v, %v", tc.name, tc.trace, m.Name, v, ok)
			}
		}
	}
	t.Logf("smoke runs took %v", time.Since(start).Round(time.Millisecond))
}
