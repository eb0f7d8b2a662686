// Package gateway implements wimi-gateway: a cluster front end that
// routes /v1/identify across N wimi-serve backends. Its job is to keep
// answering while individual backends fail — degraded if it must, wrong
// never:
//
//   - Placement is by load: each request goes to the backend with the
//     fewest requests in flight among those that are routable and whose
//     breaker admits it, the first in configuration order on a tie, so a
//     slow backend's climbing in-flight count routes new work around it.
//   - Health comes from the backends' own /readyz probes plus a circuit
//     breaker per backend; failed requests retry on other backends under
//     one shrinking deadline budget (internal/resilience), so retries
//     can never push a request past its deadline.
//   - A backend answering 429/503 is alive-but-full: the gateway honours
//     its Retry-After as a routing penalty and spills over immediately
//     instead of sleeping — and only when every backend is penalised does
//     the client see the 429.
//   - Model convergence: the gateway knows the content hash the cluster
//     is supposed to serve (registry.SourceDigest of the model source)
//     and routes away from backends reporting any other sha256, pushing
//     /v1/reload at them until they converge.
//   - Responses are verified end to end: forwarded requests opt into the
//     serve tier's body CRC, so a response corrupted on the backend link
//     is retried elsewhere, not relayed.
package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// BackendHeader names the backend that answered a relayed response —
// observability for operators, placement assertions for tests.
const BackendHeader = "X-Wimi-Backend"

// Config parameterises the gateway. Backends is required; the zero value
// of every other field selects a sensible default.
type Config struct {
	// Backends are the wimi-serve base URLs ("http://host:port").
	Backends []string
	// ExpectedVersion, when non-empty, is the model content hash
	// ("sha256:…") every backend must serve. Backends reporting any other
	// version are excluded from routing and pushed a /v1/reload until
	// they converge. Use registry.SourceDigest to compute it from the
	// model file without loading the model.
	ExpectedVersion string
	// ProbeInterval is the /readyz health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (default 2s).
	ProbeTimeout time.Duration
	// RequestTimeout is the per-request deadline budget shared by every
	// retry attempt (default 10s).
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per request across backends (default 3).
	MaxAttempts int
	// MinAttempt is the smallest budget slice worth starting an attempt
	// with (default 5ms).
	MinAttempt time.Duration
	// Backoff shapes the inter-attempt delays after hard failures
	// (defaults: 25ms initial, 250ms max, full jitter). Every request
	// draws from the gateway's one jitter stream.
	Backoff resilience.BackoffConfig
	// Breaker parameterises the per-backend circuit breakers (defaults:
	// 3 consecutive failures trip, 2s cool-down, 1 half-open probe).
	Breaker resilience.BreakerConfig
	// BatchMax, when > 1, turns on the batched data plane: concurrent
	// client requests routed to the same backend aggregate into one
	// upstream POST /v1/identify/batch of up to BatchMax slots, and
	// identical in-flight requests coalesce into a single upstream slot.
	// Default 1 (off): every request relays individually, exactly the
	// pre-batching data plane.
	BatchMax int
	// MaxBodyBytes bounds the request body (default 16 MiB).
	MaxBodyBytes int64
	// Client overrides the backend HTTP client (tests).
	Client *http.Client
	// Clock supplies time for budgets, backoff sleeps, breakers and
	// Retry-After penalties (default RealClock).
	Clock resilience.Clock
	// Logf, when set, receives operational log lines (probe transitions,
	// reload pushes). Default: discard.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MinAttempt <= 0 {
		c.MinAttempt = 5 * time.Millisecond
	}
	if c.Backoff.Initial <= 0 {
		c.Backoff.Initial = 25 * time.Millisecond
	}
	if c.Backoff.Max <= 0 {
		c.Backoff.Max = 250 * time.Millisecond
	}
	if c.Backoff.Jitter == resilience.JitterNone {
		c.Backoff.Jitter = resilience.JitterFull
	}
	if c.Breaker.FailureThreshold <= 0 {
		c.Breaker.FailureThreshold = 3
	}
	if c.Breaker.OpenFor <= 0 {
		c.Breaker.OpenFor = 2 * time.Second
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Clock == nil {
		c.Clock = resilience.RealClock()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats are cumulative gateway counters.
type Stats struct {
	// Proxied counts client requests answered from a backend 200.
	Proxied uint64 `json:"proxied"`
	// Retried counts extra attempts beyond each request's first.
	Retried uint64 `json:"retried"`
	// Spilled counts 429/503 backend answers converted into an immediate
	// try elsewhere.
	Spilled uint64 `json:"spilled"`
	// Relayed counts backend client-errors (4xx) passed through.
	Relayed uint64 `json:"relayed"`
	// Shed counts client requests the gateway answered 429 (every
	// backend penalised).
	Shed uint64 `json:"shed"`
	// Failed counts client requests the gateway answered 503 (no
	// backend could produce a verified answer in budget).
	Failed uint64 `json:"failed"`
	// Coalesced counts client requests answered by joining an identical
	// in-flight request instead of going upstream (BatchMax > 1 only).
	Coalesced uint64 `json:"coalesced"`
	// BatchesSent counts multi-slot POSTs to /v1/identify/batch.
	BatchesSent uint64 `json:"batchesSent"`
	// BatchSizes[i] counts upstream flushes that carried i+1 slots
	// (single-slot flushes travel the plain relay path but still count
	// here — mass at index 0 means every request found a flush slot free,
	// so none ever queued behind another).
	BatchSizes []uint64 `json:"batchSizes,omitempty"`
	// UpstreamConns counts connections obtained for upstream data-plane
	// calls; UpstreamConnsReused is how many of those came warm from the
	// idle pool rather than a fresh dial.
	UpstreamConns       uint64 `json:"upstreamConns"`
	UpstreamConnsReused uint64 `json:"upstreamConnsReused"`
}

// Gateway is the cluster front end.
type Gateway struct {
	cfg     Config
	clock   resilience.Clock
	backoff *resilience.Backoff
	client  *http.Client
	mux     *http.ServeMux

	backends []*backend
	expected atomic.Pointer[string]

	draining atomic.Bool
	stop     chan struct{}
	probeWG  sync.WaitGroup

	proxied atomic.Uint64
	retried atomic.Uint64
	spilled atomic.Uint64
	relayed atomic.Uint64
	shed    atomic.Uint64
	failed  atomic.Uint64

	// Batched data plane (BatchMax > 1).
	coalesced      atomic.Uint64
	batchesSent    atomic.Uint64
	batchSizes     []atomic.Uint64 // index i = flushes carrying i+1 slots
	upstreamConns  atomic.Uint64
	upstreamReused atomic.Uint64
	connTrace      *httptrace.ClientTrace

	cmu      sync.Mutex
	inflight map[coalesceKey]*inflightCall
}

// New validates the configuration, probes nothing yet, and starts the
// background health-probe loop. Call Close to stop it.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends")
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:      cfg,
		clock:    cfg.Clock,
		backoff:  resilience.NewBackoff(cfg.Backoff),
		stop:     make(chan struct{}),
		inflight: map[coalesceKey]*inflightCall{},
	}
	g.batchSizes = make([]atomic.Uint64, cfg.BatchMax)
	g.connTrace = &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) {
		g.upstreamConns.Add(1)
		if ci.Reused {
			g.upstreamReused.Add(1)
		}
	}}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		base := strings.TrimSuffix(raw, "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend %q is not an absolute URL", raw)
		}
		if seen[base] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", base)
		}
		seen[base] = true
		g.backends = append(g.backends, newBackend(base, cfg))
	}
	g.client = cfg.Client
	if g.client == nil {
		// Data-plane transport: a deep idle pool (relays are short and
		// bursty, so warm connections are the latency win), compression
		// off (bodies are float-heavy JSON relayed verbatim; gzip would
		// burn CPU on both hops), and big socket buffers for the multi-
		// hundred-KiB capture payloads.
		g.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
			WriteBufferSize:     64 << 10,
			ReadBufferSize:      64 << 10,
		}}
	}
	g.SetExpectedVersion(cfg.ExpectedVersion)
	if cfg.BatchMax > 1 {
		for _, b := range g.backends {
			g.startBatcher(b)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/identify", g.handleIdentify)
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux = mux

	g.probeWG.Add(1)
	go g.probeLoop()
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// SetExpectedVersion replaces the cluster-wide expected model digest
// (empty disables staleness checks). Safe to call while serving — the
// cmd wires it to SIGHUP so a model push converges without restarts.
func (g *Gateway) SetExpectedVersion(v string) {
	g.expected.Store(&v)
}

// ExpectedVersion returns the digest backends are expected to serve.
func (g *Gateway) ExpectedVersion() string { return *g.expected.Load() }

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	st := Stats{
		Proxied:             g.proxied.Load(),
		Retried:             g.retried.Load(),
		Spilled:             g.spilled.Load(),
		Relayed:             g.relayed.Load(),
		Shed:                g.shed.Load(),
		Failed:              g.failed.Load(),
		Coalesced:           g.coalesced.Load(),
		BatchesSent:         g.batchesSent.Load(),
		UpstreamConns:       g.upstreamConns.Load(),
		UpstreamConnsReused: g.upstreamReused.Load(),
	}
	if g.cfg.BatchMax > 1 {
		st.BatchSizes = make([]uint64, len(g.batchSizes))
		for i := range g.batchSizes {
			st.BatchSizes[i] = g.batchSizes[i].Load()
		}
	}
	return st
}

// Close begins the drain (readyz goes not-ready, new identifies are
// refused) and stops the probe loop. Queued upstream batches flush —
// their riders are answered, not stranded — and the in-flight flushes are
// waited for; in-flight single relays finish under their own budgets.
func (g *Gateway) Close() {
	if g.draining.Swap(true) {
		return
	}
	close(g.stop)
	g.probeWG.Wait()
	for _, b := range g.backends {
		if b.batcher != nil {
			b.batcher.Close()
		}
	}
	g.client.CloseIdleConnections()
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	routable := 0
	for _, b := range g.backends {
		if b.routable(g.clock.Now()) {
			routable++
		}
	}
	ready := !g.draining.Load() && routable > 0
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    ready,
		"backends": len(g.backends),
		"routable": routable,
	})
}

// backendStatus is one backend's row in the /v1/cluster answer.
type backendStatus struct {
	URL          string `json:"url"`
	Healthy      bool   `json:"healthy"`
	Ready        bool   `json:"ready"`
	Stale        bool   `json:"stale"`
	Breaker      string `json:"breaker"`
	Inflight     int64  `json:"inflight"`
	PenaltyForMS int64  `json:"penaltyForMs,omitempty"`
	ModelVersion string `json:"modelVersion,omitempty"`
	Served       uint64 `json:"served"`
	Failures     uint64 `json:"failures"`
	LastError    string `json:"lastError,omitempty"`
}

func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	now := g.clock.Now()
	rows := make([]backendStatus, 0, len(g.backends))
	for _, b := range g.backends {
		rows = append(rows, b.status(now))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"expectedModel": g.ExpectedVersion(),
		"backends":      rows,
		"stats":         g.Stats(),
	})
}
