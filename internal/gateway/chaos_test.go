package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/faults"
	"repro/internal/material"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// faultyListener wraps every accepted conn in the faults proxy: the
// backends' response writes suffer corruption, truncation, stalls and
// forced disconnects, so every backend→gateway link in the cluster is
// hostile.
type faultyListener struct {
	net.Listener
	profile faults.Profile
	seed    atomic.Int64
}

func (fl *faultyListener) Accept() (net.Conn, error) {
	c, err := fl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc, err := faults.WrapConn(c, fl.profile, fl.seed.Add(1))
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return fc, nil
}

// clusterFixture trains one model, persists it, and knows how to encode
// identify requests for its sessions.
type clusterFixture struct {
	registry *registry.Registry
	version  string
	bodies   [][]byte
	labels   []string
}

func newClusterFixture(t testing.TB) *clusterFixture {
	t.Helper()
	liquids := []string{material.PureWater, material.Honey}
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
		for trial := 0; trial < 3; trial++ {
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
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fx := &clusterFixture{registry: reg, version: reg.Active().Version, labels: labels}
	for _, s := range sessions {
		fx.bodies = append(fx.bodies, encodeIdentify(t, s))
	}
	return fx
}

func encodeIdentify(t testing.TB, s *csi.Session) []byte {
	t.Helper()
	enc := func(c *csi.Capture) []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, c.NumAntennas(), s.Carrier)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteCapture(c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data, err := json.Marshal(serve.IdentifyRequest{Baseline: enc(&s.Baseline), Target: enc(&s.Target)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// chaosBackend is one real serve.Server listening behind a faulty link,
// stoppable and restartable on the same address mid-test.
type chaosBackend struct {
	t       testing.TB
	reg     *registry.Registry
	profile faults.Profile
	addr    string

	mu      sync.Mutex
	srv     *serve.Server
	httpSrv *http.Server
	done    chan struct{}
}

func startChaosBackend(t testing.TB, reg *registry.Registry, profile faults.Profile) *chaosBackend {
	cb := &chaosBackend{t: t, reg: reg, profile: profile}
	cb.start("127.0.0.1:0")
	return cb
}

func (cb *chaosBackend) start(addr string) {
	cb.t.Helper()
	s, err := serve.New(serve.Config{
		Registry:       cb.reg,
		MaxBatch:       4,
		QueueDepth:     32,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		cb.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cb.t.Fatal(err)
	}
	fl := &faultyListener{Listener: ln, profile: cb.profile}
	httpSrv := &http.Server{Handler: s.Handler()}
	done := make(chan struct{})
	go func() {
		_ = httpSrv.Serve(fl)
		close(done)
	}()
	cb.mu.Lock()
	cb.srv, cb.httpSrv, cb.done = s, httpSrv, done
	cb.addr = ln.Addr().String()
	cb.mu.Unlock()
}

func (cb *chaosBackend) stop() {
	cb.mu.Lock()
	httpSrv, done, srv := cb.httpSrv, cb.done, cb.srv
	cb.httpSrv, cb.done, cb.srv = nil, nil, nil
	cb.mu.Unlock()
	if httpSrv == nil {
		return
	}
	_ = httpSrv.Close()
	<-done
	srv.Shutdown()
}

// restart brings the backend back on the SAME address it had before.
func (cb *chaosBackend) restart() {
	cb.mu.Lock()
	addr := cb.addr
	cb.mu.Unlock()
	cb.start(addr)
}

// TestChaosClusterKeepsAnswering is the tentpole's acceptance test: a
// gateway over three real backends, every backend link injecting
// corruption/truncation/stalls/disconnects, one backend killed and
// restarted mid-burst. The contract under all of that:
//
//   - zero hung requests: every client call completes with 200, 429 or
//     503 well inside its budget (the gateway link itself is clean);
//   - never wrong: every 200 carries the session's true material and the
//     expected model version — corrupted backend answers are retried,
//     not relayed;
//   - zero goroutine leaks once the cluster drains.
func TestChaosClusterKeepsAnswering(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos burst")
	}
	fx := newClusterFixture(t)
	leakCheck := testutil.LeakCheck(t, 3)

	profile := faults.Profile{
		Name:           "gateway-chaos",
		CorruptProb:    0.04,
		TruncateProb:   0.05,
		StallProb:      0.08,
		StallDuration:  3 * time.Millisecond,
		DisconnectProb: 0.03,
	}
	backends := []*chaosBackend{
		startChaosBackend(t, fx.registry, profile),
		startChaosBackend(t, fx.registry, profile),
		startChaosBackend(t, fx.registry, profile),
	}

	g, err := New(Config{
		Backends: []string{
			"http://" + backends[0].addr,
			"http://" + backends[1].addr,
			"http://" + backends[2].addr,
		},
		ExpectedVersion: fx.version,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    time.Second,
		RequestTimeout:  3 * time.Second,
		MaxAttempts:     4,
		Backoff:         resilience.BackoffConfig{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		HedgeDelay:      150 * time.Millisecond,
		LoadSlack:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwServer := httptest.NewServer(g.Handler())

	const clients = 10
	const perClient = 8
	var ok, shed, unavailable atomic.Int64
	var slowest atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			defer client.CloseIdleConnections()
			for i := 0; i < perClient; i++ {
				n := (c*perClient + i) % len(fx.bodies)
				start := time.Now()
				resp, err := client.Post(gwServer.URL+"/v1/identify", "application/json",
					bytes.NewReader(fx.bodies[n]))
				elapsed := time.Since(start)
				for {
					prev := slowest.Load()
					if int64(elapsed) <= prev || slowest.CompareAndSwap(prev, int64(elapsed)) {
						break
					}
				}
				if err != nil {
					// The client→gateway link has no injected faults: a
					// transport error here means the gateway hung or died.
					t.Errorf("client %d req %d: transport error through clean link: %v", c, i, err)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if rerr != nil {
					t.Errorf("client %d req %d: reading gateway response: %v", c, i, rerr)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					var out serve.IdentifyResponse
					if err := json.Unmarshal(body, &out); err != nil {
						t.Errorf("client %d req %d: 200 with unparseable body %q: %v", c, i, body, err)
						continue
					}
					if out.Material != fx.labels[n] {
						t.Errorf("client %d req %d: wrong answer %q, want %q", c, i, out.Material, fx.labels[n])
					}
					if out.ModelVersion != fx.version {
						t.Errorf("client %d req %d: answered from model %q, want %q", c, i, out.ModelVersion, fx.version)
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("client %d req %d: 429 without Retry-After", c, i)
					}
				case http.StatusServiceUnavailable:
					unavailable.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("client %d req %d: 503 without Retry-After", c, i)
					}
				default:
					t.Errorf("client %d req %d: unexpected status %d: %s", c, i, resp.StatusCode, body)
				}
			}
		}(c)
	}

	// Mid-burst, kill backend 0 outright, leave it dead through several
	// probe rounds, then restart it on the same address.
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		time.Sleep(150 * time.Millisecond)
		backends[0].stop()
		time.Sleep(400 * time.Millisecond)
		backends[0].restart()
	}()

	wg.Wait()
	<-killerDone

	total := int64(clients * perClient)
	if got := ok.Load() + shed.Load() + unavailable.Load(); got != total {
		t.Errorf("%d of %d requests unaccounted for", total-got, total)
	}
	if ok.Load() < total/2 {
		t.Errorf("only %d/%d requests got answers (shed=%d unavailable=%d); cluster barely alive",
			ok.Load(), total, shed.Load(), unavailable.Load())
	}
	// The budget contract: no request may outlive its deadline budget by
	// more than scheduling slack, chaos or not.
	if d := time.Duration(slowest.Load()); d > 4*time.Second {
		t.Errorf("slowest request took %v; retries escaped the 3s budget", d)
	}
	t.Logf("chaos burst: ok=%d shed=%d unavailable=%d slowest=%v stats=%+v",
		ok.Load(), shed.Load(), unavailable.Load(), time.Duration(slowest.Load()), g.Stats())

	// Drain everything, then the goroutine count must return to baseline.
	gwServer.Close()
	g.Close()
	for _, cb := range backends {
		cb.stop()
	}
	leakCheck()
}
