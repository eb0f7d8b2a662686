package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/testutil"
)

// startServeBackend runs a real serve.Server (batch endpoint included)
// on an httptest listener — the clean-link counterpart of chaosBackend.
// A non-nil gate stalls its single /v1/identify path until opened.
func startServeBackend(t testing.TB, fx *clusterFixture, gate *flushGate) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{
		Registry:       fx.registry,
		QueueDepth:     64,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	h := s.Handler()
	if gate != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/identify" {
				gate.wait()
			}
			inner.ServeHTTP(w, r)
		})
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// flushGate stalls a backend's single /v1/identify path until opened. A
// test uses it to occupy all of the gateway's in-flight flushes for that
// backend with lone blocker requests, so a burst queues behind them and
// forms upstream batches by construction.
type flushGate struct {
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func newFlushGate() *flushGate {
	return &flushGate{arrived: make(chan struct{}, 256), release: make(chan struct{})}
}

// wait runs in the backend's single-path handler: it reports the arrival
// and stalls until the gate opens.
func (fg *flushGate) wait() {
	select {
	case fg.arrived <- struct{}{}:
	default:
	}
	<-fg.release
}

func (fg *flushGate) open() { fg.once.Do(func() { close(fg.release) }) }

// blockerBodies returns one distinct body per in-flight flush, for burst
// to hold the flushes with.
func blockerBodies() []string {
	bodies := make([]string, upstreamInflight)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"blocker":%d}`, i)
	}
	return bodies
}

// reply is one client-visible answer: what byte-identity compares.
type reply struct {
	status int
	model  string
	body   []byte
}

// burst sends the first upstreamInflight reqs one at a time, each
// stalling at the gate and so holding one of the backend's in-flight
// flushes, then fires the rest concurrently, waits until ready reports
// them queued behind the held flushes, and opens the gate. It returns
// every request's reply.
func (fg *flushGate) burst(t *testing.T, ts *httptest.Server, ready func() bool, reqs ...string) []reply {
	t.Helper()
	replies := make([]reply, len(reqs))
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postIdentify(t, ts, reqs[i])
			replies[i] = reply{status: resp.StatusCode, model: resp.Header.Get(serve.ModelVersionHeader), body: body}
		}()
	}
	fail := func(format string, args ...any) {
		fg.open()
		wg.Wait()
		t.Fatalf(format, args...)
	}
	for i := 0; i < upstreamInflight; i++ {
		post(i)
		select {
		case <-fg.arrived:
		case <-time.After(10 * time.Second):
			fail("blocker %d never reached the backend", i)
		}
	}
	for i := upstreamInflight; i < len(reqs); i++ {
		post(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !ready() {
		if time.Now().After(deadline) {
			fail("the burst never queued behind the held flushes")
		}
		time.Sleep(time.Millisecond)
	}
	fg.open()
	wg.Wait()
	return replies
}

// TestBatchedRelayBitIdentical is the tentpole's correctness contract:
// whatever combination of upstream micro-batching and in-flight
// coalescing a request travels through, the client must receive the
// exact bytes (status, body, model version) the unbatched relay path
// would have produced.
func TestBatchedRelayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full relay matrix")
	}
	fx := newClusterFixture(t)
	backends := []*httptest.Server{
		startServeBackend(t, fx, nil),
		startServeBackend(t, fx, nil),
		startServeBackend(t, fx, nil),
	}
	urls := []string{backends[0].URL, backends[1].URL, backends[2].URL}

	newGW := func(batchMax int, urls ...string) (*Gateway, *httptest.Server) {
		g, err := New(Config{
			Backends:        urls,
			ExpectedVersion: fx.version,
			ProbeInterval:   20 * time.Millisecond,
			RequestTimeout:  5 * time.Second,
			BatchMax:        batchMax,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		ts := httptest.NewServer(g.Handler())
		t.Cleanup(ts.Close)
		waitRoutable(t, g, len(urls))
		return g, ts
	}

	// Malformed bodies ride the held cell: serve answers each its own 400,
	// and a capture with +Inf at a subcarrier the model uses its 422, which
	// must reach the client as the unbatched path relays it.
	good, err := core.CalibrateSubcarriers(fx.sessions, core.AntennaPair{A: 0, B: 1}, core.DefaultConfig().GoodSubcarriers)
	if err != nil {
		t.Fatal(err)
	}
	inf := *fx.sessions[0]
	inf.Target.Packets = append([]csi.Packet(nil), inf.Target.Packets...)
	inf.Target.Packets[3].CSI = inf.Target.Packets[3].CSI.Clone()
	inf.Target.Packets[3].CSI.Values[0][good[0]] = complex(math.Inf(1), 0)
	valid := len(fx.bodies)
	bodies := append(slices.Clip(fx.bodies),
		[]byte(`{},{}`),                              // two values, which must stay one slot
		fx.bodies[0][:len(fx.bodies[0])/2],           // a truncated object
		append(slices.Clip(fx.bodies[1]), "junk"...), // a valid body plus trailing bytes
		encodeIdentify(t, &inf))                      // identification fails: 422
	unprocessable := len(bodies) - 1

	refGW, refTS := newGW(1, urls...)
	refs := make([]reply, len(bodies))
	for i, body := range bodies {
		resp, err := http.Post(refTS.URL+"/v1/identify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := http.StatusOK
		switch {
		case i == unprocessable:
			want = http.StatusUnprocessableEntity
		case i >= valid:
			want = http.StatusBadRequest
		}
		if resp.StatusCode != want {
			t.Fatalf("reference request %d: status %d, want %d, body %s", i, resp.StatusCode, want, b)
		}
		refs[i] = reply{status: resp.StatusCode, model: resp.Header.Get(serve.ModelVersionHeader), body: b}
	}
	if st := refGW.Stats(); st.Retried != 0 {
		t.Fatalf("the unbatched path retried %d answers; a 4xx is final", st.Retried)
	}
	same := func(t *testing.T, n int, got reply) {
		t.Helper()
		ref := refs[n]
		if got.status != ref.status {
			t.Errorf("body %d: status %d, unbatched path gave %d (%s)", n, got.status, ref.status, got.body)
		}
		if got.model != ref.model {
			t.Errorf("body %d: model %q, unbatched path gave %q", n, got.model, ref.model)
		}
		if !bytes.Equal(got.body, ref.body) {
			t.Errorf("body %d: batched response differs from unbatched:\n got:  %q\n want: %q", n, got.body, ref.body)
		}
	}

	for _, workers := range []int{1, 4} {
		for _, size := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, size), func(t *testing.T) {
				_, ts := newGW(size, urls...)
				// 3 rounds over every body: duplicates within a burst
				// exercise coalescing, distinct bodies exercise batching.
				total := 3 * len(fx.bodies)
				jobs := make(chan int, total)
				for i := 0; i < total; i++ {
					jobs <- i % len(fx.bodies)
				}
				close(jobs)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						client := &http.Client{Timeout: 10 * time.Second}
						defer client.CloseIdleConnections()
						for n := range jobs {
							resp, err := client.Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(fx.bodies[n]))
							if err != nil {
								t.Errorf("body %d: %v", n, err)
								continue
							}
							b, rerr := io.ReadAll(resp.Body)
							_ = resp.Body.Close()
							if rerr != nil {
								t.Errorf("body %d: reading response: %v", n, rerr)
								continue
							}
							same(t, n, reply{status: resp.StatusCode, model: resp.Header.Get(serve.ModelVersionHeader), body: b})
						}
					}()
				}
				wg.Wait()
			})
		}
	}

	// The matrix cannot promise that a batch forms. Here one does by
	// construction: the first bodies hold the backend's in-flight flushes,
	// and 3 rounds over every body, malformed ones included, wait behind
	// them — copies of the held bodies coalesce onto them, each other body
	// leads one queued slot, and its copies coalesce onto that leader.
	t.Run("held", func(t *testing.T) {
		leaders := len(bodies) - upstreamInflight
		if leaders < 2 {
			t.Fatalf("%d bodies leave %d to queue behind %d flushes; a batch needs 2", len(bodies), leaders, upstreamInflight)
		}
		gate := newFlushGate()
		held := startServeBackend(t, fx, gate)
		g, ts := newGW(8, held.URL)
		var reqs []string
		var idx []int
		for n, body := range fx.bodies[:upstreamInflight] {
			reqs = append(reqs, string(body))
			idx = append(idx, n)
		}
		for round := 0; round < 3; round++ {
			for n, body := range bodies {
				reqs = append(reqs, string(body))
				idx = append(idx, n)
			}
		}
		followers := uint64(len(reqs) - upstreamInflight - leaders)
		ready := func() bool {
			return g.backends[0].batcher.QueueLen() == leaders && g.Stats().Coalesced == followers
		}
		for i, got := range gate.burst(t, ts, ready, reqs...) {
			same(t, idx[i], got)
		}
		st := g.Stats()
		if st.BatchSizes[leaders-1] == 0 {
			t.Errorf("the %d queued leaders did not flush as one batch: %v", leaders, st.BatchSizes)
		}
		if st.Retried != 0 {
			t.Errorf("the held cell retried %d answers; a 4xx is final", st.Retried)
		}
	})
}

// TestCoalescingSharesOneUpstream pins the dedup contract: identical
// bodies in flight together produce one upstream call; followers share
// the leader's bytes and count as coalesced.
func TestCoalescingSharesOneUpstream(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	const clients = 8
	gate := newFlushGate()
	slow := newFakeBackend(t, "sha256:aaa", "water")
	slow.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
		gate.wait()
		writeIdentifyOK(w, "water", "sha256:aaa")
		return true
	})
	g, ts := newTestGateway(t, Config{BatchMax: 8}, slow)
	// The leader's upstream call stalls until every other client has
	// joined it as a follower.
	go func() {
		for g.Stats().Coalesced < clients-1 {
			select {
			case <-gate.release:
				return
			case <-time.After(time.Millisecond):
			}
		}
		gate.open()
	}()

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, body := postIdentify(t, ts, `{"same":"capture"}`)
			statuses[c] = resp.StatusCode
			bodies[c] = body
		}(c)
	}
	wg.Wait()

	for c := 0; c < clients; c++ {
		if statuses[c] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", c, statuses[c], bodies[c])
		}
		if !bytes.Equal(bodies[c], bodies[0]) {
			t.Errorf("client %d received different bytes than client 0", c)
		}
	}
	st := g.Stats()
	if st.Coalesced != clients-1 {
		t.Errorf("coalesced=%d, want %d followers of one leader", st.Coalesced, clients-1)
	}
	if n := slow.identifies.Load(); n != 1 {
		t.Errorf("backend saw %d identifies for %d identical requests, want 1", n, clients)
	}
	if st.Proxied != clients {
		t.Errorf("proxied=%d, want %d (every client answered once)", st.Proxied, clients)
	}
}

// TestBatchFallbackWhenBackendHasNoBatchRoute pins the refused-frame
// fallback: a backend without /v1/identify/batch (an older serve build —
// the fake's mux simply lacks the route) 404s the frame, and every rider
// goes straight down the single path to a 200, spending no retry.
func TestBatchFallbackWhenBackendHasNoBatchRoute(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	gate := newFlushGate()
	f := newFakeBackend(t, "sha256:aaa", "water")
	f.setIdentify(func(w http.ResponseWriter, r *http.Request) bool {
		gate.wait()
		writeIdentifyOK(w, "water", "sha256:aaa")
		return true
	})
	g, ts := newTestGateway(t, Config{BatchMax: 4}, f)

	// Blockers hold the flushes; the other distinct requests queue behind
	// them and flush as batches the backend cannot take. Queued calls
	// count as backend load beside the ones on the wire.
	reqs := make([]string, 8)
	for c := range reqs {
		reqs[c] = fmt.Sprintf(`{"distinct":%d}`, c)
	}
	b := g.backends[0]
	queued := func() bool {
		return b.batcher.QueueLen() == len(reqs)-upstreamInflight && b.inflight.Load() == int64(len(reqs))
	}
	for c, got := range gate.burst(t, ts, queued, reqs...) {
		if got.status != http.StatusOK {
			t.Errorf("client %d: status %d, body %s", c, got.status, got.body)
		}
	}
	if n := b.inflight.Load(); n != 0 {
		t.Errorf("backend load %d after every request was answered, want 0", n)
	}
	st := g.Stats()
	if st.BatchesSent == 0 {
		t.Fatalf("no upstream batch was attempted: %v", st.BatchSizes)
	}
	if st.Retried != 0 {
		t.Errorf("retried=%d: the refused frame's riders spent routing attempts", st.Retried)
	}
	resp, body := postIdentify(t, ts, `{"after":"fallback"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fallback request: status %d, body %s", resp.StatusCode, body)
	}
}

// readFrame parses a fake backend's batch request with the serve codec. A
// frame the codec rejects fails the test and answers 400 (nil slots).
func readFrame(t *testing.T, w http.ResponseWriter, r *http.Request) [][]byte {
	frame, _ := io.ReadAll(r.Body)
	slots, err := serve.ParseBatchFrame(frame)
	if err != nil {
		t.Errorf("gateway sent a bad batch frame: %v", err)
		httpError(w, http.StatusBadRequest, "%v", err)
	}
	return slots
}

// writeBatchOK stamps a whole-response CRC over a batch answer the way
// the serve tier does.
func writeBatchOK(w http.ResponseWriter, out serve.BatchIdentifyResponse) {
	body, _ := json.Marshal(out)
	body = append(body, '\n')
	w.Header().Set(serve.BodyCRCHeader, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// TestBatchPartialFailureSplitsPerSlot pins per-slot retry isolation: a
// batch where one slot fails 5xx must not poison its co-riders, and the
// failed slot's request retries alone down the single path.
func TestBatchPartialFailureSplitsPerSlot(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))

	okBody, _ := json.Marshal(serve.IdentifyResponse{
		Material: "water", Omega: 1.5, Confidence: 0.9, ModelVersion: "sha256:aaa",
	})
	flaky := newFakeBackend(t, "sha256:aaa", "water")
	var batchCalls atomic.Int64
	flakyMux := http.NewServeMux()
	flakyMux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "modelVersion": "sha256:aaa"})
	})
	gate := newFlushGate()
	flakyMux.HandleFunc("POST /v1/identify", func(w http.ResponseWriter, r *http.Request) {
		flaky.identifies.Add(1)
		gate.wait()
		writeIdentifyOK(w, "water", "sha256:aaa")
	})
	flakyMux.HandleFunc("POST /v1/identify/batch", func(w http.ResponseWriter, r *http.Request) {
		batchCalls.Add(1)
		slots := readFrame(t, w, r)
		if slots == nil {
			return
		}
		out := serve.BatchIdentifyResponse{Results: make([]serve.BatchSlot, len(slots))}
		for i, raw := range slots {
			if bytes.Contains(raw, []byte("poison")) {
				body, _ := json.Marshal(map[string]string{"error": "worker crashed"})
				out.Results[i] = serve.BatchSlot{Status: http.StatusInternalServerError, Body: body}
				continue
			}
			out.Results[i] = serve.BatchSlot{Status: http.StatusOK, ModelVersion: "sha256:aaa", Body: okBody}
		}
		writeBatchOK(w, out)
	})
	flaky.ts.Config.Handler = flakyMux

	healthy := newFakeBackend(t, "sha256:aaa", "water")
	g, ts := newTestGateway(t, Config{
		BatchMax:    4,
		MaxAttempts: 4,
	}, flaky, healthy)
	waitRoutable(t, g, 2)

	// Pin every request to the flaky backend by making it the only
	// routable one: penalise the healthy backend for the whole test.
	flakyBackend, healthyBackend := g.backends[0], g.backends[1]
	if flakyBackend.url != flaky.url() {
		flakyBackend, healthyBackend = healthyBackend, flakyBackend
	}
	healthyBackend.penalise(g.clock.Now(), time.Minute)

	// Blockers hold the flushes; the burst behind them batches as one
	// upstream call with one poisoned slot among clean ones. Every request
	// must still end 200.
	reqs := append(blockerBodies(), `{"clean":1}`, `{"poison":true}`, `{"clean":2}`, `{"clean":3}`)
	queued := func() bool { return flakyBackend.batcher.QueueLen() == 4 }
	for c, got := range gate.burst(t, ts, queued, reqs...) {
		if got.status != http.StatusOK {
			t.Errorf("client %d (%s): status %d, body %s", c, reqs[c], got.status, got.body)
		}
	}
	if batchCalls.Load() != 1 {
		t.Errorf("%d upstream batch calls, want the burst as exactly one", batchCalls.Load())
	}
	// The poisoned slot retried down the flaky backend's single path.
	if g.Stats().Retried == 0 {
		t.Error("poisoned slot never retried")
	}
}

// TestMalformedBodyDoesNotPoisonBatch pins per-slot isolation of
// malformed bodies: each rides the upstream frame as one opaque slot, so
// "{},{}" cannot smuggle in a second slot and a truncated object cannot
// spoil the frame — the backend answers each malformed slot its own 400
// while the valid bodies batched beside it succeed untouched.
func TestMalformedBodyDoesNotPoisonBatch(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))

	okBody, _ := json.Marshal(serve.IdentifyResponse{
		Material: "water", Omega: 1.5, Confidence: 0.9, ModelVersion: "sha256:aaa",
	})
	badBody, _ := json.Marshal(map[string]string{"error": "malformed request body"})
	f := newFakeBackend(t, "sha256:aaa", "water")
	var batchCalls, batchSlots atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "modelVersion": "sha256:aaa"})
	})
	gate := newFlushGate()
	mux.HandleFunc("POST /v1/identify", func(w http.ResponseWriter, r *http.Request) {
		gate.wait()
		writeIdentifyOK(w, "water", "sha256:aaa")
	})
	mux.HandleFunc("POST /v1/identify/batch", func(w http.ResponseWriter, r *http.Request) {
		batchCalls.Add(1)
		slots := readFrame(t, w, r)
		if slots == nil {
			return
		}
		batchSlots.Add(int64(len(slots)))
		out := serve.BatchIdentifyResponse{Results: make([]serve.BatchSlot, len(slots))}
		for i, raw := range slots {
			out.Results[i] = serve.BatchSlot{Status: http.StatusOK, ModelVersion: "sha256:aaa", Body: okBody}
			if !json.Valid(raw) {
				out.Results[i] = serve.BatchSlot{Status: http.StatusBadRequest, Body: badBody}
			}
		}
		writeBatchOK(w, out)
	})
	f.ts.Config.Handler = mux

	g, ts := newTestGateway(t, Config{BatchMax: 8}, f)

	// Blockers hold the flushes; all six bodies behind them queue and
	// flush as one frame.
	bodies := append(blockerBodies(),
		`{"clean":1}`, `{},{}`, `{"clean":2}`, `{"unterminated":`, `{"clean":3}`, `{"clean":4}`)
	queued := func() bool { return g.backends[0].batcher.QueueLen() == 6 }
	for i, got := range gate.burst(t, ts, queued, bodies...) {
		want := http.StatusOK
		if !json.Valid([]byte(bodies[i])) {
			want = http.StatusBadRequest
		}
		if got.status != want {
			t.Errorf("body %q: status %d, want %d", bodies[i], got.status, want)
		}
	}
	if n, slots := batchCalls.Load(), batchSlots.Load(); n != 1 || slots != 6 {
		t.Errorf("%d upstream batch calls carrying %d slots, want one carrying exactly 6", n, slots)
	}
	st := g.Stats()
	if st.Failed != 0 {
		t.Errorf("failed=%d: malformed bodies turned into backend failures", st.Failed)
	}
	if st.Retried != 0 {
		t.Errorf("retried=%d: co-batched requests were forced onto the retry path", st.Retried)
	}
	if state := g.backends[0].breaker.State(); state != resilience.BreakerClosed {
		t.Errorf("breaker %v: malformed bodies charged the backend", state)
	}
}

// TestOversizedBatchSplitsEnvelope pins the envelope budget: bodies that
// are individually legal but together outgrow MaxBodyBytes (which the
// backend enforces on the whole envelope) must be split across several
// batch calls — or ride the single path alone — instead of being glued
// into one envelope the backend is guaranteed to 400.
func TestOversizedBatchSplitsEnvelope(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t, 3))
	const maxBody = 4096

	okBody, _ := json.Marshal(serve.IdentifyResponse{
		Material: "water", Omega: 1.5, Confidence: 0.9, ModelVersion: "sha256:aaa",
	})
	f := newFakeBackend(t, "sha256:aaa", "water")
	var batchCalls, oversized atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "modelVersion": "sha256:aaa"})
	})
	gate := newFlushGate()
	mux.HandleFunc("POST /v1/identify", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		gate.wait()
		writeIdentifyOK(w, "water", "sha256:aaa")
	})
	mux.HandleFunc("POST /v1/identify/batch", func(w http.ResponseWriter, r *http.Request) {
		batchCalls.Add(1)
		if r.ContentLength > maxBody {
			oversized.Add(1)
			httpError(w, http.StatusBadRequest, "frame of %d bytes exceeds the limit", r.ContentLength)
			return
		}
		slots := readFrame(t, w, r)
		if slots == nil {
			return
		}
		out := serve.BatchIdentifyResponse{Results: make([]serve.BatchSlot, len(slots))}
		for i := range slots {
			out.Results[i] = serve.BatchSlot{Status: http.StatusOK, ModelVersion: "sha256:aaa", Body: okBody}
		}
		writeBatchOK(w, out)
	})
	f.ts.Config.Handler = mux

	g, ts := newTestGateway(t, Config{
		BatchMax:     8,
		MaxBodyBytes: maxBody,
	}, f)

	// Behind blockers holding the flushes: six ~1.5 KiB bodies (at most
	// two share a 4 KiB envelope) plus one near the ingress limit (fits no
	// envelope at all: single path), all flushed together.
	pad := strings.Repeat("x", 1500)
	bodies := blockerBodies()
	for i := 0; i < 6; i++ {
		bodies = append(bodies, fmt.Sprintf(`{"id":%d,"pad":%q}`, i, pad))
	}
	bodies = append(bodies, fmt.Sprintf(`{"id":6,"pad":%q}`, strings.Repeat("y", maxBody-100)))

	queued := func() bool { return g.backends[0].batcher.QueueLen() == 7 }
	for i, got := range gate.burst(t, ts, queued, bodies...) {
		if got.status != http.StatusOK {
			t.Errorf("body %d: status %d, body %s", i, got.status, got.body)
		}
	}

	if oversized.Load() != 0 {
		t.Errorf("%d frames exceeded the backend limit", oversized.Load())
	}
	// However the seven queued, the six small bodies hold a run of at
	// least three, which flushes at least one two-slot envelope.
	if batchCalls.Load() == 0 {
		t.Error("no upstream batch call happened; the burst never batched")
	}
	if st := g.Stats(); st.Failed != 0 || st.Retried != 0 {
		t.Errorf("failed=%d retried=%d: oversized envelopes forced retries", st.Failed, st.Retried)
	}
}

// TestGatewayShutdownMidBatchAnswers503NoLeak closes the gateway while
// all of a backend's in-flight flushes are upstream batch envelopes that
// the backend stalls past the request budget, with more calls queued
// behind them. Every caught client must get an answer (503 — the deadline
// expired — or 429, never a hang) and no goroutine may be left behind.
func TestGatewayShutdownMidBatchAnswers503NoLeak(t *testing.T) {
	leakCheck := testutil.LeakCheck(t, 3)

	// Blockers hold every flush at the gate; riders queue behind them and,
	// once the gate opens, leave as envelopes of 4 (one per flush but the
	// last) and 2, which stall upstream; two late calls then queue behind
	// those.
	const batchMax = 4
	const blockers, riders, late = upstreamInflight, batchMax*(upstreamInflight-1) + 2, 2
	gate := newFlushGate()
	envelopes := make(chan struct{}, upstreamInflight+1)
	stop := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "modelVersion": "sha256:aaa"})
	})
	mux.HandleFunc("POST /v1/identify", func(w http.ResponseWriter, r *http.Request) {
		gate.wait()
		writeIdentifyOK(w, "water", "sha256:aaa")
	})
	mux.HandleFunc("POST /v1/identify/batch", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a read body lets the server see the gateway hang up
		envelopes <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	})
	backend := httptest.NewServer(mux)

	g, err := New(Config{
		Backends:       []string{backend.URL},
		ProbeInterval:  25 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    2,
		BatchMax:       batchMax,
		// The stalled envelopes are the point; they must not trip it.
		Breaker: resilience.BreakerConfig{FailureThreshold: 100},
		Backoff: resilience.BackoffConfig{Initial: time.Millisecond, Max: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	waitRoutable(t, g, 1)

	status := make([]int, blockers+riders+late)
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			defer client.CloseIdleConnections()
			resp, err := client.Post(ts.URL+"/v1/identify", "application/json",
				strings.NewReader(fmt.Sprintf(`{"client":%d}`, i)))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			status[i] = resp.StatusCode
		}()
	}
	waitFor := func(what string, done func() bool) {
		deadline := time.Now().Add(time.Second)
		for !done() {
			if time.Now().After(deadline) {
				gate.open()
				g.Close()
				wg.Wait()
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	b := g.backends[0]
	for i := 0; i < blockers; i++ {
		post(i)
		waitFor(fmt.Sprintf("blocker %d reaching the backend", i), func() bool {
			select {
			case <-gate.arrived:
				return true
			default:
				return false
			}
		})
	}
	for i := blockers; i < blockers+riders; i++ {
		post(i)
	}
	waitFor("the riders queueing behind the held flushes", func() bool { return b.batcher.QueueLen() == riders })
	gate.open()
	sent := 0
	waitFor("every envelope reaching the backend", func() bool {
		select {
		case <-envelopes:
			sent++
		default:
		}
		return sent == upstreamInflight
	})
	if st := g.Stats(); st.BatchesSent != upstreamInflight || st.BatchSizes[1] != 1 || st.BatchSizes[batchMax-1] != upstreamInflight-1 {
		t.Errorf("want %d envelopes in flight, %d of 4 and one of 2; got %d, sizes %v",
			upstreamInflight, upstreamInflight-1, st.BatchesSent, st.BatchSizes)
	}
	for i := blockers + riders; i < len(status); i++ {
		post(i)
	}
	waitFor("the late calls queueing behind the stalled envelopes", func() bool { return b.batcher.QueueLen() == late })

	g.Close()
	wg.Wait()
	for i, code := range status {
		switch {
		case i < blockers:
			if code != http.StatusOK {
				t.Errorf("blocker %d: status %d, want 200", i, code)
			}
		case code != http.StatusServiceUnavailable && code != http.StatusTooManyRequests:
			t.Errorf("client %d: status %d, want 503/429 from the stalled backend", i, code)
		}
	}

	ts.Close()
	close(stop)
	backend.Close()
	leakCheck()
}
