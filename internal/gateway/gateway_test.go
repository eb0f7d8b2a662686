package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/testutil"
)

// fakeBackend is a scriptable wimi-serve stand-in: it answers /readyz
// and /v1/identify from mutable state and counts what it saw.
type fakeBackend struct {
	t  *testing.T
	ts *httptest.Server

	mu        sync.Mutex
	version   string
	material  string
	identify  func(w http.ResponseWriter, r *http.Request) bool // optional override; true = handled
	reloadsTo string                                            // version adopted when /v1/reload lands

	identifies atomic.Int64
	reloads    atomic.Int64
}

func newFakeBackend(t *testing.T, version, mat string) *fakeBackend {
	f := &fakeBackend{t: t, version: version, material: mat}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		v := f.version
		f.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "modelVersion": v})
	})
	mux.HandleFunc("POST /v1/reload", func(w http.ResponseWriter, r *http.Request) {
		f.reloads.Add(1)
		f.mu.Lock()
		if f.reloadsTo != "" {
			f.version = f.reloadsTo
		}
		v := f.version
		f.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"modelVersion": v})
	})
	mux.HandleFunc("POST /v1/identify", func(w http.ResponseWriter, r *http.Request) {
		f.identifies.Add(1)
		f.mu.Lock()
		override := f.identify
		v, mat := f.version, f.material
		f.mu.Unlock()
		if override != nil && override(w, r) {
			return
		}
		w.Header().Set(serve.ModelVersionHeader, v)
		writeIdentifyOK(w, mat, v)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeBackend) setIdentify(fn func(w http.ResponseWriter, r *http.Request) bool) {
	f.mu.Lock()
	f.identify = fn
	f.mu.Unlock()
}

func (f *fakeBackend) setReloadsTo(v string) {
	f.mu.Lock()
	f.reloadsTo = v
	f.mu.Unlock()
}

func (f *fakeBackend) url() string { return f.ts.URL }

// writeIdentifyOK emits a CRC-stamped success body the way the serve
// tier does when the gateway opts into integrity.
func writeIdentifyOK(w http.ResponseWriter, material, version string) {
	body, _ := json.Marshal(serve.IdentifyResponse{
		Material: material, Omega: 1.5, Confidence: 0.9, ModelVersion: version,
	})
	body = append(body, '\n')
	w.Header().Set(serve.BodyCRCHeader, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// newTestGateway builds a gateway over the fakes with fast probes and a
// tight budget, serving on an httptest server.
func newTestGateway(t *testing.T, cfg Config, fakes ...*fakeBackend) (*Gateway, *httptest.Server) {
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.url())
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.Backoff.Initial == 0 {
		cfg.Backoff.Initial = time.Millisecond
	}
	if cfg.Backoff.Max == 0 {
		cfg.Backoff.Max = 5 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	waitRoutable(t, g, 1)
	return g, ts
}

// waitRoutable blocks until at least n backends are routable.
func waitRoutable(t testing.TB, g *Gateway, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		routable := 0
		for _, b := range g.backends {
			if b.routable(g.clock.Now()) {
				routable++
			}
		}
		if routable >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("never saw %d routable backends", n)
}

func postIdentify(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/identify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// postStatus posts one identify from any goroutine and returns the
// status and the answering backend; a transport error reads as status -1
// with the error as the backend.
func postStatus(ts *httptest.Server, body string) (int, string) {
	resp, err := http.Post(ts.URL+"/v1/identify", "application/json", strings.NewReader(body))
	if err != nil {
		return -1, err.Error()
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(BackendHeader)
}

func TestProxiesVerifiedAnswer(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	f := newFakeBackend(t, "sha256:aaa", "water")
	_, ts := newTestGateway(t, Config{}, f)
	resp, body := postIdentify(t, ts, `{"x":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var out serve.IdentifyResponse
	if err := json.Unmarshal(body, &out); err != nil || out.Material != "water" {
		t.Fatalf("body %s (err %v)", body, err)
	}
	if got := resp.Header.Get(BackendHeader); got != f.url() {
		t.Errorf("%s = %q, want %q", BackendHeader, got, f.url())
	}
	if got := resp.Header.Get(serve.ModelVersionHeader); got != "sha256:aaa" {
		t.Errorf("%s = %q, want sha256:aaa", serve.ModelVersionHeader, got)
	}
}

func TestFailoverToHealthyBackend(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	bad := newFakeBackend(t, "sha256:aaa", "water")
	bad.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
		w.WriteHeader(http.StatusInternalServerError)
		return true
	})
	good := newFakeBackend(t, "sha256:aaa", "water")
	g, ts := newTestGateway(t, Config{MaxAttempts: 4}, bad, good)
	waitRoutable(t, g, 2)
	for i := 0; i < 10; i++ {
		resp, body := postIdentify(t, ts, fmt.Sprintf(`{"i":%d}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	if good.identifies.Load() < 10 {
		t.Errorf("good backend served %d identifies, want ≥10", good.identifies.Load())
	}
	if g.Stats().Retried == 0 {
		t.Error("expected at least one retry while the bad backend was failing")
	}
	// The bad backend's breaker must have tripped: after 10 requests its
	// identify count stays well below the request count.
	if n := bad.identifies.Load(); n >= 10 {
		t.Errorf("bad backend saw %d identifies; breaker never tripped", n)
	}
}

// TestRetryStopsWhenBudgetCannotFitNextWait pins that the routing loop
// never sleeps past its request's budget: when the backoff wait after a
// hard failure plus MinAttempt no longer fits in what is left, the loop
// answers 503 at once instead of sleeping into a doomed attempt. The fake
// clock never moves, so a loop that slept would hang here.
func TestRetryStopsWhenBudgetCannotFitNextWait(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	f := newFakeBackend(t, "sha256:aaa", "water")
	f.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
		w.WriteHeader(http.StatusInternalServerError)
		return true
	})
	g, ts := newTestGateway(t, Config{
		Clock:          resilience.NewFakeClock(),
		RequestTimeout: 50 * time.Millisecond,
		MaxAttempts:    10,
		// The first wait is at least 100ms, twice the whole budget.
		Backoff: resilience.BackoffConfig{Initial: 100 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: resilience.JitterEqual},
	}, f)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/identify", "application/json", strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatalf("the routing loop slept past its budget: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := f.identifies.Load(); n != 1 {
		t.Errorf("%d attempts reached the backend, want 1 (no doomed retries past the budget)", n)
	}
	if st := g.Stats(); st.Retried != 0 || st.Failed != 1 {
		t.Errorf("stats %+v, want retried=0 failed=1", st)
	}
}

// TestRetryCancelledContext pins that the routing loop stops when its
// client hangs up: a client that cancels while the loop backs off after a
// hard failure gets no further attempt made for it, and the request moves
// no outcome counter. The fake clock never moves, so the backoff sleep can
// end only through the client's context.
func TestRetryCancelledContext(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	f := newFakeBackend(t, "sha256:aaa", "water")
	f.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
		w.WriteHeader(http.StatusInternalServerError)
		return true
	})
	clk := resilience.NewFakeClock()
	g, err := New(Config{
		Backends:      []string{f.url()},
		Clock:         clk,
		ProbeInterval: 20 * time.Millisecond,
		MaxAttempts:   2,
		Backoff:       resilience.BackoffConfig{Initial: time.Second, Max: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	handled := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.Handler().ServeHTTP(w, r)
		close(handled)
	}))
	t.Cleanup(ts.Close)
	waitRoutable(t, g, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/identify", strings.NewReader(`{"x":1}`))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				_ = resp.Body.Close()
			}
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.identifies.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first attempt never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("client error %v, want context.Canceled", err)
	}
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		clk.Advance(time.Hour) // end the sleep, so the handler can return
		t.Fatal("the routing loop kept backing off after its client hung up")
	}
	if n := f.identifies.Load(); n != 1 {
		t.Errorf("%d attempts reached the backend, want 1", n)
	}
	if st := g.Stats(); st.Retried != 0 || st.Proxied+st.Relayed+st.Shed+st.Failed != 0 {
		t.Errorf("stats %+v, want no retry and no outcome counted for an abandoned request", st)
	}
}

func TestSpilloverOn429HonoursPenalty(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	full := newFakeBackend(t, "sha256:aaa", "water")
	full.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		return true
	})
	calm := newFakeBackend(t, "sha256:aaa", "water")
	g, ts := newTestGateway(t, Config{}, full, calm)
	waitRoutable(t, g, 2)
	for i := 0; i < 20; i++ {
		resp, body := postIdentify(t, ts, fmt.Sprintf(`{"i":%d}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	// The full backend is penalised for 30s after its first 429: it may
	// see at most one identify (the first request's, as it is first in
	// order and both backends are idle).
	if n := full.identifies.Load(); n > 1 {
		t.Errorf("penalised backend saw %d identifies, want ≤1", n)
	}
	if g.Stats().Spilled == 0 && full.identifies.Load() > 0 {
		t.Error("a 429 answer should count as a spill")
	}
}

func TestAllBackendsFullAnswers429(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	mk := func() *fakeBackend {
		f := newFakeBackend(t, "sha256:aaa", "water")
		f.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			return true
		})
		return f
	}
	g, ts := newTestGateway(t, Config{}, mk(), mk())
	waitRoutable(t, g, 2)
	resp, body := postIdentify(t, ts, `{"x":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, body %s; want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 7 {
		t.Errorf("Retry-After %q, want an int in [1,7]", resp.Header.Get("Retry-After"))
	}
	if g.Stats().Shed == 0 {
		t.Error("gateway shed counter not incremented")
	}
}

func TestNoBackendsAnswers503WithRetryAfter(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	f := newFakeBackend(t, "sha256:aaa", "water")
	g, ts := newTestGateway(t, Config{}, f)
	f.ts.Close() // backend gone; next probe marks it down
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && g.backends[0].healthy.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := postIdentify(t, ts, `{"x":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s; want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 must carry Retry-After")
	}
	// readyz reflects the dead cluster.
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rz.Body)
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz status %d with all backends down, want 503", rz.StatusCode)
	}
}

func TestPermanentErrorRelayedVerbatim(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	a := newFakeBackend(t, "sha256:aaa", "water")
	reject := func(w http.ResponseWriter, r *http.Request) bool {
		httpError(w, http.StatusUnprocessableEntity, "identification failed: out of manifold")
		return true
	}
	a.setIdentify(reject)
	b := newFakeBackend(t, "sha256:aaa", "water")
	b.setIdentify(reject)
	g, ts := newTestGateway(t, Config{}, a, b)
	waitRoutable(t, g, 2)
	resp, body := postIdentify(t, ts, `{"x":1}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 relayed", resp.StatusCode)
	}
	if !strings.Contains(string(body), "out of manifold") {
		t.Errorf("backend error body not relayed: %s", body)
	}
	// Exactly one backend consulted: a 4xx is not retried.
	if n := a.identifies.Load() + b.identifies.Load(); n != 1 {
		t.Errorf("%d identifies for one permanent error, want 1", n)
	}
}

func TestCorruptedResponseRetriedNotRelayed(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	liar := newFakeBackend(t, "sha256:aaa", "water")
	liar.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
		// Declares one CRC, sends different bytes — a corrupted link.
		w.Header().Set(serve.BodyCRCHeader, "12345")
		w.Header().Set(serve.ModelVersionHeader, "sha256:aaa")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"material":"plutonium","omega":1,"confidence":1,"modelVersion":"sha256:aaa"}`))
		return true
	})
	honest := newFakeBackend(t, "sha256:aaa", "water")
	g, ts := newTestGateway(t, Config{MaxAttempts: 4}, liar, honest)
	waitRoutable(t, g, 2)
	for i := 0; i < 10; i++ {
		resp, body := postIdentify(t, ts, fmt.Sprintf(`{"i":%d}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var out serve.IdentifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Material != "water" {
			t.Fatalf("request %d: corrupted answer %q relayed to client", i, out.Material)
		}
	}
}

func TestStaleBackendExcludedAndConverges(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	// The stale fake ignores reload pushes at first, so it stays on the
	// old digest while we prove it gets no traffic.
	stale := newFakeBackend(t, "sha256:old0000", "water")
	fresh := newFakeBackend(t, "sha256:new0000", "water")
	g, ts := newTestGateway(t, Config{ExpectedVersion: "sha256:new0000"}, stale, fresh)
	waitRoutable(t, g, 1)

	// While stale, the stale backend serves no traffic.
	before := stale.identifies.Load()
	for i := 0; i < 6; i++ {
		resp, body := postIdentify(t, ts, fmt.Sprintf(`{"i":%d}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(serve.ModelVersionHeader); got != "sha256:new0000" {
			t.Fatalf("request %d answered from model %q, want sha256:new0000", i, got)
		}
	}
	if n := stale.identifies.Load() - before; n != 0 {
		t.Errorf("stale backend served %d identifies while excluded", n)
	}

	if stale.reloads.Load() == 0 {
		t.Error("gateway never pushed a reload at the stale backend")
	}

	// Now let the fake adopt the push: the next reload lands the expected
	// digest and the backend must become routable again.
	stale.setReloadsTo("sha256:new0000")
	waitRoutable(t, g, 2)
}

// backendURL names a pick result in failure messages.
func backendURL(b *backend) string {
	if b == nil {
		return "none"
	}
	return b.url
}

// TestPickLeastLoaded pins the routing rule on a fake clock: the fewest
// requests in flight win, a tie goes to the first backend in
// configuration order, and tried, unhealthy, unready, stale and
// penalised backends are skipped. pick never changes a breaker's state.
func TestPickLeastLoaded(t *testing.T) {
	clk := resilience.NewFakeClock()
	cfg := Config{Clock: clk}.withDefaults()
	g := &Gateway{cfg: cfg, clock: clk}
	for i := 0; i < 3; i++ {
		g.backends = append(g.backends, newBackend(fmt.Sprintf("http://backend%d", i), cfg))
	}
	b0, b1, b2 := g.backends[0], g.backends[1], g.backends[2]
	for _, tc := range []struct {
		name     string
		inflight [3]int64
		off      func() // takes backends out of routing
		tried    []*backend
		want     *backend
	}{
		{"fewest in flight wins", [3]int64{2, 1, 3}, nil, nil, b1},
		{"all idle: the first in order", [3]int64{}, nil, nil, b0},
		{"a tie goes to the first in order", [3]int64{4, 1, 1}, nil, nil, b1},
		{"tried skipped", [3]int64{0, 5, 1}, nil, []*backend{b0}, b2},
		{"all tried", [3]int64{}, nil, []*backend{b2, b0, b1}, nil},
		{"unhealthy skipped", [3]int64{0, 2, 1}, func() { b0.healthy.Store(false) }, nil, b2},
		{"unready skipped", [3]int64{0, 2, 1}, func() { b0.ready.Store(false) }, nil, b2},
		{"stale skipped", [3]int64{0, 2, 1}, func() { b0.stale.Store(true) }, nil, b2},
		{"penalised skipped", [3]int64{0, 2, 1}, func() { b0.penalise(clk.Now(), time.Second) }, nil, b2},
		{"none routable", [3]int64{}, func() {
			b0.stale.Store(true)
			b1.ready.Store(false)
			b2.penalise(clk.Now(), time.Second)
		}, nil, nil},
	} {
		for i, b := range g.backends {
			b.healthy.Store(true)
			b.ready.Store(true)
			b.stale.Store(false)
			b.penaltyUntil.Store(0)
			b.inflight.Store(tc.inflight[i])
		}
		if tc.off != nil {
			tc.off()
		}
		if got := g.pick(tc.tried); got != tc.want {
			t.Errorf("%s: picked %s, want %s", tc.name, backendURL(got), backendURL(tc.want))
		}
		for _, b := range g.backends {
			if st := b.breaker.State(); st != resilience.BreakerClosed {
				t.Errorf("%s: pick moved %s's breaker to %v", tc.name, b.url, st)
			}
		}
	}
}

// TestPickSkipsOpenBreaker pins the breaker rule on a fake clock: a
// backend whose breaker is open and cooling is skipped, however idle it
// is; once the cool-down has passed it is picked again, and its breaker
// stays open — the Allow at send time, not pick, half-opens it. With its
// one half-open probe out, it is skipped again.
func TestPickSkipsOpenBreaker(t *testing.T) {
	clk := resilience.NewFakeClock()
	cfg := Config{Clock: clk, Breaker: resilience.BreakerConfig{FailureThreshold: 1, OpenFor: time.Second}}.withDefaults()
	g := &Gateway{cfg: cfg, clock: clk}
	for i := 0; i < 2; i++ {
		b := newBackend(fmt.Sprintf("http://backend%d", i), cfg)
		b.healthy.Store(true)
		b.ready.Store(true)
		g.backends = append(g.backends, b)
	}
	b0, b1 := g.backends[0], g.backends[1]
	b1.inflight.Store(3)
	if err := b0.breaker.Allow(); err != nil {
		t.Fatal(err)
	}
	b0.breaker.Record(false) // trips
	check := func(step string, want *backend, state resilience.BreakerState) {
		t.Helper()
		if got := g.pick(nil); got != want {
			t.Errorf("%s: picked %s, want %s", step, backendURL(got), backendURL(want))
		}
		if st := b0.breaker.State(); st != state {
			t.Errorf("%s: breaker %v after pick, want %v", step, st, state)
		}
	}
	check("open, cooling", b1, resilience.BreakerOpen)
	clk.Advance(time.Second - time.Nanosecond)
	check("a nanosecond before the cool-down ends", b1, resilience.BreakerOpen)
	clk.Advance(time.Nanosecond)
	check("cooled down", b0, resilience.BreakerOpen)
	if err := b0.breaker.Allow(); err != nil {
		t.Fatal(err)
	}
	check("half-open, probe out", b1, resilience.BreakerHalfOpen)
}

// TestRoutesAroundHeldBackend pins the slow-backend defence: least-loaded
// placement. The first backend in configuration order holds every
// identify until released. The first request finds both backends idle
// and goes to it; every later one, sent once the previous one is held or
// answered, finds it busier than its idle peer and answers 200 from the
// peer on its first attempt while the backend holds. The batched data
// plane counts a call queued for a flush as in flight, so the same holds
// at BatchMax 8.
func TestRoutesAroundHeldBackend(t *testing.T) {
	for _, batchMax := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch=%d", batchMax), func(t *testing.T) {
			t.Cleanup(testutil.LeakCheck(t, 3))
			release := make(chan struct{})
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }
			defer unblock()
			held := newFakeBackend(t, "sha256:aaa", "water")
			held.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
				select {
				case <-release:
				case <-r.Context().Done():
					return true
				}
				writeIdentifyOK(w, "water", "sha256:aaa")
				return true
			})
			peer := newFakeBackend(t, "sha256:aaa", "water")
			g, ts := newTestGateway(t, Config{BatchMax: batchMax}, held, peer)
			waitRoutable(t, g, 2)

			type routed struct {
				status  int
				backend string
			}
			const requests = 8
			replies := make(chan routed, requests)
			var answered []routed
			// Send one at a time, each once the previous one is held or
			// answered, so every pick sees settled in-flight counts; the held
			// request stays in flight throughout.
			for i := 0; i < requests; i++ {
				heldBefore := held.identifies.Load()
				go func() {
					status, backend := postStatus(ts, fmt.Sprintf(`{"i":%d}`, i))
					replies <- routed{status, backend}
				}()
				deadline := time.Now().Add(5 * time.Second)
			wait:
				for held.identifies.Load() == heldBefore {
					select {
					case r := <-replies:
						answered = append(answered, r)
						break wait
					case <-time.After(time.Millisecond):
					}
					if time.Now().After(deadline) {
						t.Fatalf("request %d neither reached the held backend nor answered", i)
					}
				}
			}

			if n := held.identifies.Load(); n != 1 {
				t.Errorf("held backend carries %d requests, want 1", n)
			}
			if len(answered) != requests-1 {
				t.Errorf("%d of %d requests answered while the backend was held, want %d", len(answered), requests, requests-1)
			}
			for _, r := range answered {
				if r.status != http.StatusOK || r.backend != peer.url() {
					t.Errorf("request answered %d by %q while the backend was held, want 200 by the peer %s", r.status, r.backend, peer.url())
				}
			}
			if n := g.Stats().Retried; n != 0 {
				t.Errorf("retried %d: routing around load is placement, not a retry after failure", n)
			}

			unblock()
			for i := len(answered); i < requests; i++ {
				if r := <-replies; r.status != http.StatusOK || r.backend != held.url() {
					t.Errorf("released request answered %d by %q, want 200 by the held backend %s", r.status, r.backend, held.url())
				}
			}
		})
	}
}

// TestRoutesAroundFastFailingBackend pins the breaker half of the routing
// rule. The first backend in configuration order answers 500 at once, so
// it is always the least loaded; the other two hold each identify 30 ms.
// It takes the first FailureThreshold requests, one each, and trips its
// breaker; from then on pick skips it while it cools instead of spending
// each later request's first attempt on ErrBreakerOpen. Every request is
// sent once the previous one has reached a holding backend, so each pick
// sees every failure recorded before it. OpenFor outlasts the test, so no
// half-open probe lands.
func TestRoutesAroundFastFailingBackend(t *testing.T) {
	for _, batchMax := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch=%d", batchMax), func(t *testing.T) {
			t.Cleanup(testutil.LeakCheck(t, 3))
			failing := newFakeBackend(t, "sha256:aaa", "water")
			failing.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
				w.WriteHeader(http.StatusInternalServerError)
				return true
			})
			hold := func(w http.ResponseWriter, r *http.Request) bool {
				select {
				case <-time.After(30 * time.Millisecond):
				case <-r.Context().Done():
					return true
				}
				writeIdentifyOK(w, "water", "sha256:aaa")
				return true
			}
			slowA := newFakeBackend(t, "sha256:aaa", "water")
			slowA.setIdentify(hold)
			slowB := newFakeBackend(t, "sha256:aaa", "water")
			slowB.setIdentify(hold)
			g, ts := newTestGateway(t, Config{
				BatchMax: batchMax,
				Breaker:  resilience.BreakerConfig{OpenFor: time.Minute},
			}, failing, slowA, slowB)
			waitRoutable(t, g, 3)

			const requests = 60
			statuses := make(chan int, requests)
			for i := 0; i < requests; i++ {
				go func() {
					status, _ := postStatus(ts, fmt.Sprintf(`{"i":%d}`, i))
					statuses <- status
				}()
				deadline := time.Now().Add(5 * time.Second)
				for slowA.identifies.Load()+slowB.identifies.Load() <= int64(i) {
					if time.Now().After(deadline) {
						t.Fatalf("request %d never reached a holding backend", i)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			for i := 0; i < requests; i++ {
				if s := <-statuses; s != http.StatusOK {
					t.Errorf("status %d, want 200", s)
				}
			}
			threshold := g.cfg.Breaker.FailureThreshold
			if n := failing.identifies.Load(); n != int64(threshold) {
				t.Errorf("failing backend saw %d identifies, want FailureThreshold = %d", n, threshold)
			}
			if n := g.Stats().Retried; n != uint64(threshold) {
				t.Errorf("retried %d, want FailureThreshold = %d: one retry per failed first attempt", n, threshold)
			}
		})
	}
}

// TestSlotRetryAfterPenaltyIsBounded pins that a batch slot's Retry-After
// takes the same bounds as the header form: no hint penalises for less
// than 1s, and a hint whose seconds would overflow a Duration penalises
// for MaxRetryAfter instead of a wrapped (negative or tiny) span.
func TestSlotRetryAfterPenaltyIsBounded(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	clk := resilience.NewFakeClock()
	f := newFakeBackend(t, "sha256:aaa", "water")
	g, err := New(Config{Backends: []string{f.url()}, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	b := g.backends[0]
	for _, tc := range []struct {
		secs int64
		want time.Duration
	}{
		{0, time.Second},
		{7, 7 * time.Second},
		{10000000000, resilience.MaxRetryAfter},
		{18446744074, resilience.MaxRetryAfter},
		{math.MaxInt64, resilience.MaxRetryAfter},
	} {
		b.penaltyUntil.Store(0)
		res := g.classifySlot(b, serve.BatchSlot{Status: http.StatusTooManyRequests, RetryAfterSec: tc.secs}, "")
		var spill *spillError
		if !errors.As(res.err, &spill) || spill.after != tc.want {
			t.Errorf("Retry-After %ds: %v, want a spill after %v", tc.secs, res.err, tc.want)
		}
		if got := time.Duration(b.penaltyUntil.Load() - clk.Now().UnixNano()); got != tc.want {
			t.Errorf("Retry-After %ds: penalised for %v, want %v", tc.secs, got, tc.want)
		}
	}
}

func TestClusterEndpointReportsState(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	f := newFakeBackend(t, "sha256:aaa", "water")
	g, ts := newTestGateway(t, Config{ExpectedVersion: "sha256:aaa"}, f)
	postIdentify(t, ts, `{"x":1}`)
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		ExpectedModel string          `json:"expectedModel"`
		Backends      []backendStatus `json:"backends"`
		Stats         Stats           `json:"stats"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	if out.ExpectedModel != "sha256:aaa" || len(out.Backends) != 1 {
		t.Fatalf("cluster answer %s", body)
	}
	b := out.Backends[0]
	if !b.Healthy || !b.Ready || b.Stale || b.ModelVersion != "sha256:aaa" || b.Served != 1 {
		t.Errorf("backend row %+v", b)
	}
	if out.Stats.Proxied != 1 {
		t.Errorf("stats %+v, want proxied=1", out.Stats)
	}
	_ = g
}
