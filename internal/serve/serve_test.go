package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/registry"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// fixture bundles a served model and sessions to probe it with.
type fixture struct {
	registry *registry.Registry
	path     string
	sessions []*csi.Session
	labels   []string
}

// newFixture trains a small model over liquids, persists it, and opens a
// registry on it.
func newFixture(t testing.TB, liquids []string) *fixture {
	t.Helper()
	model, sessions, labels := trainModel(t, liquids)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, model, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{registry: reg, path: path, sessions: sessions, labels: labels}
}

func trainModel(t testing.TB, liquids []string) ([]byte, []*csi.Session, []string) {
	t.Helper()
	db := material.PaperDatabase()
	var sessions []*csi.Session
	var labels []string
	for mi, name := range liquids {
		m, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := simulate.Default()
		sc.Liquid = &m
		for trial := 0; trial < 4; trial++ {
			s, err := simulate.Session(sc, int64(mi*100000+trial*7919))
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	id, err := core.TrainIdentifier(sessions, labels, core.IdentifierConfig{Pipeline: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := id.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sessions, labels
}

// encodeRequest renders a session as the wire format: two .csitrace
// streams base64-embedded in JSON.
func encodeRequest(t testing.TB, s *csi.Session) []byte {
	t.Helper()
	req := IdentifyRequest{
		Baseline: encodeTrace(t, &s.Baseline, s.Carrier),
		Target:   encodeTrace(t, &s.Target, s.Carrier),
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func encodeTrace(t testing.TB, c *csi.Capture, carrier float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, c.NumAntennas(), carrier)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCapture(c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postIdentify(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, IdentifyResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out IdentifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestIdentifyEndToEnd(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey, material.Oil})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	correct := 0
	for i, session := range fx.sessions {
		resp, out := postIdentify(t, ts, encodeRequest(t, session))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d: status %d", i, resp.StatusCode)
		}
		if out.Material == fx.labels[i] {
			correct++
		}
		if out.Confidence < 0 || out.Confidence > 1 {
			t.Errorf("session %d: confidence %v", i, out.Confidence)
		}
		if !strings.HasPrefix(out.ModelVersion, "sha256:") {
			t.Errorf("session %d: model version %q", i, out.ModelVersion)
		}
		if got := resp.Header.Get(ModelVersionHeader); got != out.ModelVersion {
			t.Errorf("session %d: %s header %q, want body version %q",
				i, ModelVersionHeader, got, out.ModelVersion)
		}
	}
	// Training sessions should identify almost perfectly.
	if correct < len(fx.sessions)-1 {
		t.Errorf("only %d/%d training sessions identified correctly", correct, len(fx.sessions))
	}
	if st := s.Stats(); st.Served != uint64(len(fx.sessions)) {
		t.Errorf("served counter %d, want %d", st.Served, len(fx.sessions))
	}
}

// slotHold parks every request that reaches a pipeline slot until
// released, and records how many requests ever held a slot at once.
type slotHold struct {
	release chan struct{}
	once    sync.Once
	entered atomic.Int64 // requests that reached a slot
	running atomic.Int64 // requests holding a slot right now
	peak    atomic.Int64 // the most that ever held one at once
}

func holdSlots(s *Server) *slotHold {
	h := &slotHold{release: make(chan struct{})}
	s.holdSlot = func() {
		h.entered.Add(1)
		n := h.running.Add(1)
		for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
		}
		<-h.release
		h.running.Add(-1)
	}
	return h
}

// unblock releases every held and later request; safe to call more than
// once.
func (h *slotHold) unblock() { h.once.Do(func() { close(h.release) }) }

// waitFor polls cond until it holds, failing the test after 10s. Before
// failing it unblocks h, so the test's deferred Shutdown can drain.
func waitFor(t *testing.T, h *slotHold, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			h.unblock()
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthAndReady(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready        bool   `json:"ready"`
		ModelVersion string `json:"modelVersion"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !ready.Ready || ready.ModelVersion == "" {
		t.Errorf("readyz before drain: %+v", ready)
	}

	// Draining flips readiness and refuses new identify requests.
	s.Shutdown()
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d", resp.StatusCode)
	}
	body := encodeRequest(t, fx.sessions[0])
	resp, _ = postIdentify(t, ts, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("identify while draining: %d", resp.StatusCode)
	}
}

// TestIdentifyRejectsBadRequests pins the 400s: malformed JSON, missing
// or undecodable traces, and a valid body followed by trailing bytes.
func TestIdentifyRejectsBadRequests(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	cases := []struct {
		name string
		body string
	}{
		{"not json", "chaos"},
		{"empty object", "{}"},
		{"missing target", `{"baseline":"QUJD"}`},
		{"garbage traces", `{"baseline":"QUJD","target":"QUJD"}`},
		{"trailing bytes", string(encodeRequest(t, fx.sessions[0])) + "junk"},
	}
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestHotReloadKeepsInFlightRequests swaps the model while a request is
// inside its pipeline slot and asserts the in-flight request completes on the model it
// started with, while later requests see the new version.
func TestHotReloadKeepsInFlightRequests(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	oldVersion := fx.registry.Active().Version
	entered := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.holdSlot = func() {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := encodeRequest(t, fx.sessions[0])
	type result struct {
		status  int
		version string
	}
	first := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- result{}
			return
		}
		var out IdentifyResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		_ = resp.Body.Close()
		first <- result{resp.StatusCode, out.ModelVersion}
	}()
	<-entered // request is now in the pipeline, holding its model snapshot

	// Push a new model file and reload while the request is in flight.
	newModel, _, _ := trainModel(t, []string{material.Milk, material.Oil})
	if err := os.WriteFile(fx.path, newModel, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	newVersion := fx.registry.Active().Version
	if newVersion == oldVersion {
		t.Fatal("reload did not change the active version")
	}

	close(release)
	got := <-first
	if got.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d", got.status)
	}
	if got.version != oldVersion {
		t.Errorf("in-flight request answered by %q, want the model it started with %q", got.version, oldVersion)
	}

	// A fresh request is served by the new model.
	s.holdSlot = nil
	resp2, out := postIdentify(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-reload request: status %d", resp2.StatusCode)
	}
	if out.ModelVersion != newVersion {
		t.Errorf("post-reload request answered by %q, want %q", out.ModelVersion, newVersion)
	}
}

// TestShedsWith429WhenSaturated fills the admission queue while the
// pipeline is held and asserts overload is shed with 429 + Retry-After
// instead of queueing unboundedly.
func TestShedsWith429WhenSaturated(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{
		Registry:   fx.registry,
		Workers:    1,
		QueueDepth: 2,
		RetryAfter: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.holdSlot = func() { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := encodeRequest(t, fx.sessions[0])

	// Saturate: 1 in the held slot + 2 queued; wait until the queue
	// really holds 2, then the next request must shed.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
			if err == nil {
				_ = resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queued() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.queued() < 2 {
		t.Fatal("queue never filled")
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After %q, want %q", got, "3")
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Error("shed counter did not move")
	}
	close(release)
	wg.Wait()
	s.Shutdown()
}

// TestComputeRetryAfter pins the load-derived Retry-After hint: queued
// work over drain rate, clamped, with the configured constant as the
// no-data fallback.
func TestComputeRetryAfter(t *testing.T) {
	cases := []struct {
		name     string
		queued   int
		rate     float64
		fallback time.Duration
		want     time.Duration
	}{
		{"no rate falls back", 10, 0, 3 * time.Second, 3 * time.Second},
		{"no rate, no fallback", 10, 0, 0, time.Second},
		{"fast drain clamps to 1s", 4, 100, 3 * time.Second, time.Second},
		{"queue over rate", 20, 2, time.Second, 10 * time.Second},
		{"slow drain clamps to 60s", 500, 0.5, time.Second, time.Minute},
		{"empty queue still waits 1s", 0, 5, time.Second, time.Second},
	}
	for _, tc := range cases {
		if got := computeRetryAfter(tc.queued, tc.rate, tc.fallback); got != tc.want {
			t.Errorf("%s: computeRetryAfter(%d, %v, %v) = %v, want %v",
				tc.name, tc.queued, tc.rate, tc.fallback, got, tc.want)
		}
	}
}

// TestRetryAfterReflectsDrainRate establishes a real drain rate, then
// saturates the queue and asserts the 429 hint is computed from load —
// not the (deliberately large) configured fallback.
func TestRetryAfterReflectsDrainRate(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{
		Registry:   fx.registry,
		Workers:    1,
		QueueDepth: 2,
		RetryAfter: 45 * time.Second, // fallback; computed path must beat it
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := encodeRequest(t, fx.sessions[0])

	// Sequential requests spaced past the drain meter's 50ms sampling
	// window give it a real jobs/sec estimate.
	for i := 0; i < 4; i++ {
		resp, _ := postIdentify(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up request %d: status %d", i, resp.StatusCode)
		}
		time.Sleep(60 * time.Millisecond)
	}
	if rate := s.drain.currentRate(); rate <= 0 {
		t.Fatalf("drain rate not established: %v", rate)
	}

	// Wedge the pipeline and overfill the queue.
	release := make(chan struct{})
	s.holdSlot = func() { <-release }
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
			if err == nil {
				_ = resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.queued() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	// Identifies run in single-digit milliseconds, so draining a 2-deep
	// queue takes well under the fallback: the hint must be computed.
	if secs < 1 || secs >= 45 {
		t.Errorf("Retry-After %ds: want a computed hint in [1, 45)", secs)
	}
	// Unwedge BEFORE Shutdown: the drain waits for every admitted
	// request, one of which is parked in the held slot.
	close(release)
	wg.Wait()
	s.Shutdown()
}

// TestShutdownDrainsAdmittedRequests verifies admitted requests complete
// during drain: every request is admitted behind held pipeline slots
// before Shutdown begins, and every one must still finish 200.
func TestShutdownDrainsAdmittedRequests(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry, Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := encodeRequest(t, fx.sessions[0])

	hold := holdSlots(s)
	results := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- -1
				return
			}
			_ = resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// Begin the drain while all 8 are admitted, 2 of them held in their
	// slots: Shutdown closes admission at once, then blocks until every
	// admitted request has finished.
	waitFor(t, hold, "8 admitted requests", func() bool { return s.adm.unfinished() == 8 })
	drained := make(chan struct{})
	go func() {
		s.Shutdown()
		close(drained)
	}()
	waitFor(t, hold, "admission to close", s.adm.closed)
	hold.unblock()
	wg.Wait()
	<-drained
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Errorf("admitted request finished with %d during drain", code)
		}
	}
	if st := s.Stats(); st.BatchSizes[0] != 8 {
		t.Errorf("BatchSizes[0] = %d, want the 8 one-capture requests: %v", st.BatchSizes[0], st.BatchSizes)
	}
}
