package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5), ms(6), ms(7), ms(8), ms(9), ms(10)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, ms(5)},
		{90, ms(9)},
		{99, ms(10)},
		{100, ms(10)},
		{1, ms(1)},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("p%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestMakeBodiesDistinctAndDeterministic(t *testing.T) {
	a, err := makeBodies(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeBodies(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Errorf("body %d differs across runs with the same seed", i)
		}
	}
	if string(a[0]) == string(a[1]) || string(a[1]) == string(a[2]) {
		t.Error("bodies are not distinct")
	}
}

// TestRunAgainstFakeCluster drives the whole harness against a stub
// identify endpoint: summary line parses, counters add up, bench JSON
// lands on disk.
func TestRunAgainstFakeCluster(t *testing.T) {
	var served, shed atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/identify" {
			http.NotFound(w, r)
			return
		}
		if served.Add(1)%5 == 0 {
			shed.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"material":"water","omega":1,"confidence":0.9,"modelVersion":"sha256:x"}`))
	}))
	defer ts.Close()

	outPath := filepath.Join(t.TempDir(), "out.txt")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-target", ts.URL,
		"-duration", "400ms",
		"-concurrency", "3",
		"-sessions", "2",
	}, out)
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`wimi-load: ok=(\d+) shed=(\d+) failed=(\d+) dropped=(\d+) p50=\S+ p90=\S+ p99=\S+ rps=\S+`)
	m := re.FindStringSubmatch(string(text))
	if m == nil {
		t.Fatalf("summary line missing or unparseable in output:\n%s", text)
	}
	ok, _ := strconv.Atoi(m[1])
	shedN, _ := strconv.Atoi(m[2])
	failed, _ := strconv.Atoi(m[3])
	if ok == 0 {
		t.Error("no successful requests against a healthy stub")
	}
	if int64(shedN) != shed.Load() {
		t.Errorf("summary shed=%d, stub shed %d", shedN, shed.Load())
	}
	if failed != 0 {
		t.Errorf("failed=%d against a healthy stub", failed)
	}
}
