package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// stubAnswer is what a correct server answers for the stub loader's body.
var stubAnswer = serve.IdentifyResponse{Material: "honey", Omega: 0.25, Confidence: 1, ModelVersion: "sha256:0123456789ab"}

func stubLoader(url string) *loader {
	return &loader{
		client:  newLoadClient(1),
		entry:   url,
		bodies:  [][]byte{[]byte(`{}`)},
		oracle:  []verdict{{material: stubAnswer.Material, omega: math.Float64bits(stubAnswer.Omega), confidence: 1}},
		version: stubAnswer.ModelVersion,
	}
}

func answer(w http.ResponseWriter, ans serve.IdentifyResponse) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ans)
}

// everyFiveMs is an open-loop schedule of n ops 5ms apart.
func everyFiveMs(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].due = int64(time.Duration(i) * 5 * time.Millisecond)
	}
	return ops
}

// A request that stalls the server delays the requests queued behind it on
// the connection, and their latency counts from their due time: the stall is
// charged to each of them, while the generator itself stays on schedule.
func TestOpenLoopChargesAStallToTheRequestsQueuedBehindIt(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		answer(w, stubAnswer)
	}))
	defer srv.Close()
	l := stubLoader(srv.URL)
	ops := everyFiveMs(12)
	var outstanding atomic.Int64
	l.epoch = time.Now()
	l.openLoop(ops, 1, &outstanding)

	stalled, next := ops[2], ops[3]
	if d := time.Duration(stalled.done - stalled.due); d < stall {
		t.Fatalf("stalled request took %v, want at least %v", d, stall)
	}
	if next.sent < stalled.done {
		t.Fatalf("the next request was sent before the stalled one was answered")
	}
	if lag := time.Duration(next.queued - next.due); lag > 5*time.Millisecond {
		t.Fatalf("generator handed the next request out %v late; the wait belongs to the connection", lag)
	}
	if lat, want := time.Duration(next.done-next.due), stall-5*time.Millisecond; lat < want {
		t.Fatalf("the next request's latency %v does not carry the stall (want at least %v)", lat, want)
	}
	if o := ops[len(ops)-1]; o.outcome != outOK {
		t.Fatalf("last op outcome %d, want ok", o.outcome)
	}
}

// Any difference between a 200 answer and the oracle fails the run.
func TestOracleMismatchFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*serve.IdentifyResponse)
		correct bool
	}{
		{"matching answer", func(*serve.IdentifyResponse) {}, true},
		{"wrong material", func(a *serve.IdentifyResponse) { a.Material = "milk" }, false},
		{"omega one ulp off", func(a *serve.IdentifyResponse) { a.Omega = math.Nextafter(a.Omega, 1) }, false},
		{"other model version", func(a *serve.IdentifyResponse) { a.ModelVersion = "sha256:ffffffffffff" }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ans := stubAnswer
			tc.mutate(&ans)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { answer(w, ans) }))
			defer srv.Close()
			l := stubLoader(srv.URL)
			ops := everyFiveMs(5)
			var outstanding atomic.Int64
			l.epoch = time.Now()
			l.openLoop(ops, 1, &outstanding)
			res := newResult(&runEnv{workload: "stub"}, nil)
			tl := tally(res, l, ops, 0, int64(time.Second), true)
			if res.correct() != tc.correct {
				t.Fatalf("correct = %v, want %v (problems %q)", res.correct(), tc.correct, res.Problems)
			}
			if tc.correct && (tl.verified != 5 || res.Failed != 0) {
				t.Fatalf("verified %d, failed %d; want 5 and 0", tl.verified, res.Failed)
			}
			if !tc.correct && (res.Mismatches != 5 || tl.verified != 0) {
				t.Fatalf("mismatches %d, verified %d; want 5 and 0", res.Mismatches, tl.verified)
			}
		})
	}
}

// A refused request is a failure, not a correctness problem.
func TestShedRequestCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	l := stubLoader(srv.URL)
	ops := everyFiveMs(3)
	var outstanding atomic.Int64
	l.epoch = time.Now()
	l.openLoop(ops, 1, &outstanding)
	res := newResult(&runEnv{workload: "stub"}, nil)
	tally(res, l, ops, 0, int64(time.Second), true)
	if !res.correct() || res.Failed != 3 || res.Attempted != 3 {
		t.Fatalf("correct %v, failed %d of %d; want true, 3 of 3", res.correct(), res.Failed, res.Attempted)
	}
}

func TestSliceModesInterleaveOnlyInTracedWindows(t *testing.T) {
	warm := time.Second
	if m := sliceModeAt(500*time.Millisecond, warm, true, true); m != modePlain {
		t.Errorf("warm-up op traced: mode %d", m)
	}
	if m := sliceModeAt(3*time.Second, warm, false, true); m != modePlain {
		t.Errorf("untraced run op traced: mode %d", m)
	}
	seen := map[sliceMode]bool{}
	for d := warm; d < warm+time.Second; d += traceSlice {
		seen[sliceModeAt(d, warm, true, true)] = true
	}
	if !seen[modePlain] || !seen[modeTraced] || !seen[modeDirect] {
		t.Errorf("a traced cluster second covers modes %v, want all three", seen)
	}
}
