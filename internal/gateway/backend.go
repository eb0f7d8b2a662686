package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/resilience"
)

// backend is the gateway's view of one wimi-serve instance. All fields
// are written by the probe loop and the relay path concurrently, so
// everything mutable is atomic; the breaker has its own lock.
type backend struct {
	url     string
	breaker *resilience.Breaker

	inflight atomic.Int64
	healthy  atomic.Bool
	ready    atomic.Bool
	stale    atomic.Bool
	// penaltyUntil is the clock time (UnixNano) until which a 429/503
	// Retry-After keeps routing away from this backend.
	penaltyUntil atomic.Int64
	version      atomic.Pointer[string]
	lastErr      atomic.Pointer[string]

	served   atomic.Uint64
	failures atomic.Uint64

	// batcher aggregates concurrent relays to this backend into upstream
	// batch calls (nil when the data plane runs unbatched).
	batcher *parallel.Batcher[*upstreamCall]
}

func newBackend(base string, cfg Config) *backend {
	br := cfg.Breaker
	br.Clock = cfg.Clock
	b := &backend{url: base, breaker: resilience.NewBreaker(br)}
	empty := ""
	b.version.Store(&empty)
	b.lastErr.Store(&empty)
	return b
}

// penalised reports whether a Retry-After routing penalty is active.
func (b *backend) penalised(now time.Time) bool {
	return now.UnixNano() < b.penaltyUntil.Load()
}

// penalise routes traffic away from the backend for d.
func (b *backend) penalise(now time.Time, d time.Duration) {
	until := now.Add(d).UnixNano()
	for {
		cur := b.penaltyUntil.Load()
		if cur >= until || b.penaltyUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// routable reports whether the router may consider this backend: probes
// say alive and ready, the model digest matches the cluster's expected
// version, and no Retry-After penalty is running. The circuit breaker is
// not part of it: pick asks it read-only, and admission through Allow
// happens at send time, because Allow is also the transition that
// half-opens a cooled-down breaker.
func (b *backend) routable(now time.Time) bool {
	return b.healthy.Load() && b.ready.Load() && !b.stale.Load() && !b.penalised(now)
}

func (b *backend) setVersion(v string) { b.version.Store(&v) }

func (b *backend) noteErr(err error) {
	s := err.Error()
	b.lastErr.Store(&s)
}

func (b *backend) status(now time.Time) backendStatus {
	st := backendStatus{
		URL:          b.url,
		Healthy:      b.healthy.Load(),
		Ready:        b.ready.Load(),
		Stale:        b.stale.Load(),
		Breaker:      b.breaker.State().String(),
		Inflight:     b.inflight.Load(),
		ModelVersion: *b.version.Load(),
		Served:       b.served.Load(),
		Failures:     b.failures.Load(),
		LastError:    *b.lastErr.Load(),
	}
	if until := b.penaltyUntil.Load(); until > now.UnixNano() {
		st.PenaltyForMS = (until - now.UnixNano()) / int64(time.Millisecond)
	}
	return st
}

// probeLoop keeps backend health fresh: one /readyz round per interval,
// all backends probed concurrently, first round immediately so a fresh
// gateway is routable as soon as its backends are.
func (g *Gateway) probeLoop() {
	defer g.probeWG.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	g.probeAll()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.probe(b)
		}(b)
	}
	wg.Wait()
}

// readyzBody is the subset of the serve tier's /readyz answer the
// gateway reads.
type readyzBody struct {
	Ready        bool   `json:"ready"`
	ModelVersion string `json:"modelVersion"`
}

func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		g.markDown(b, err)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.markDown(b, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	_ = resp.Body.Close()
	if err != nil {
		g.markDown(b, err)
		return
	}
	if !b.healthy.Swap(true) {
		g.cfg.Logf("gateway: backend %s is reachable again", b.url)
	}
	var rz readyzBody
	// A readyz answer that fails to parse still proves liveness; treat it
	// as not-ready rather than down.
	_ = json.Unmarshal(body, &rz)
	b.ready.Store(rz.Ready && resp.StatusCode == http.StatusOK)
	if rz.ModelVersion != "" {
		b.setVersion(rz.ModelVersion)
	}
	g.checkConvergence(b, rz.ModelVersion)
}

func (g *Gateway) markDown(b *backend, err error) {
	if b.healthy.Swap(false) {
		g.cfg.Logf("gateway: backend %s unreachable: %v", b.url, err)
	}
	b.ready.Store(false)
	b.noteErr(err)
}

// checkConvergence compares the backend's reported model digest with the
// cluster's expected one. A mismatch excludes the backend from routing
// and pushes a /v1/reload at it — the backend re-resolves its model
// source, and if the push landed the new digest the backend is routable
// again without waiting for the next probe round.
func (g *Gateway) checkConvergence(b *backend, reported string) {
	expected := g.ExpectedVersion()
	if expected == "" || reported == "" || reported == expected {
		if b.stale.Swap(false) {
			g.cfg.Logf("gateway: backend %s converged to %s", b.url, reported)
		}
		return
	}
	if !b.stale.Swap(true) {
		g.cfg.Logf("gateway: backend %s serves %s, want %s — pushing reload", b.url, reported, expected)
	}
	g.pushReload(b, expected)
}

func (g *Gateway) pushReload(b *backend, expected string) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/reload", nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		b.noteErr(err)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var out struct {
		ModelVersion string `json:"modelVersion"`
	}
	if json.Unmarshal(body, &out) == nil && out.ModelVersion == expected {
		b.setVersion(out.ModelVersion)
		b.stale.Store(false)
		g.cfg.Logf("gateway: backend %s converged to %s after reload push", b.url, expected)
	}
}
