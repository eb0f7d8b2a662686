// Package serve implements the online identification service behind
// cmd/wimi-serve: an HTTP/JSON front end over a registry of trained
// models, with request micro-batching, bounded admission (load shedding),
// per-request deadlines and graceful drain.
//
// Request flow:
//
//	POST /v1/identify → decode traces → snapshot active model →
//	  Batcher.Submit (429 when saturated) → batch worker runs the
//	  pipeline → respond {material, omega, confidence, modelVersion}
//
// Batching is opportunistic: one dispatcher runs one batch at a time, a
// request that finds it idle runs at once, and requests that arrive while
// a batch runs form the next one. Nothing ever waits for company, yet
// under load batches grow by themselves and the whole batch is classified
// in one blocked SVM predict. The batch executor also gives the service
// its backpressure story: one bounded queue in front of a bounded worker
// pool, and everything beyond that is shed immediately with Retry-After
// rather than queued into memory.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/trace"
)

// Config parameterises the service. The zero value of every field selects
// a sensible default; Registry is required.
type Config struct {
	// Registry supplies the active model.
	Registry *registry.Registry
	// MaxBatch bounds how many requests one batch coalesces (default 8).
	MaxBatch int
	// QueueDepth bounds the admission queue; requests beyond it are shed
	// with HTTP 429 (default 64).
	QueueDepth int
	// Workers bounds pipeline concurrency inside a batch
	// (default GOMAXPROCS).
	Workers int
	// RequestTimeout is the per-request deadline covering queueing and
	// pipeline time (default 10s).
	RequestTimeout time.Duration
	// RetryAfter is the fallback Retry-After hint for 429 responses,
	// used until a drain rate has been observed (default 1s). Once the
	// batch executor has completed work, the hint is computed instead:
	// queue depth divided by the measured drain rate, so a deep queue
	// behind a slow pipeline tells clients to stay away longer than a
	// blip does.
	RetryAfter time.Duration
	// MaxBodyBytes bounds the request body (default 16 MiB).
	MaxBodyBytes int64
	// VerdictCache, when positive, enables the content-hash verdict cache
	// with that many entries: requests whose raw trace bytes and active
	// model version match a cached verdict are answered without decoding
	// or running the pipeline. Off by default — it only pays when the
	// workload replays identical captures (monitoring probes, load
	// harnesses, gateway retries).
	VerdictCache int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// IdentifyRequest is the POST /v1/identify body: a measurement session as
// the same .csitrace byte streams wimi-sim/wimi-collect write, base64
// inside JSON. The body json.Marshal writes for it is the canonical form
// serve decodes without the JSON scanner (canonicalTraces), so the field
// order and tags are part of the fast path.
type IdentifyRequest struct {
	Baseline []byte `json:"baseline"`
	Target   []byte `json:"target"`
}

// IdentifyResponse is the identification answer.
type IdentifyResponse struct {
	Material     string  `json:"material"`
	Omega        float64 `json:"omega"`
	Confidence   float64 `json:"confidence"`
	ModelVersion string  `json:"modelVersion"`
}

// Stats are cumulative request counters.
type Stats struct {
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`
	Timeouts uint64 `json:"timeouts"`
	Failed   uint64 `json:"failed"`
	// CacheHits/CacheMisses count verdict-cache outcomes; both stay zero
	// when the cache is disabled.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// BatchSizes[i] counts executed batches that coalesced i+1 requests —
	// the histogram a load run reads to confirm coalescing actually
	// happened (all mass at index 0 means every request ran alone).
	BatchSizes []uint64 `json:"batchSizes"`
}

// job is one admitted request travelling through the batcher.
type job struct {
	ctx     context.Context
	session *csi.Session
	model   *registry.Model
	done    chan jobResult // buffered: the worker never blocks on delivery
}

type jobResult struct {
	detail core.Detail
	err    error
}

// Server is the online identification service.
type Server struct {
	cfg     Config
	batcher *parallel.Batcher[*job]
	mux     *http.ServeMux

	draining atomic.Bool
	served   atomic.Uint64
	shed     atomic.Uint64
	timeouts atomic.Uint64
	failed   atomic.Uint64

	// completed counts jobs the batch executor has finished (any
	// outcome); the drain meter turns it into a jobs/sec rate for the
	// computed Retry-After hint.
	completed atomic.Uint64
	drain     drainMeter

	// modelCache holds the pre-encoded /v1/model body for the currently
	// active model.
	modelCache atomic.Pointer[modelJSON]

	// batchSizes[i] counts executed batches of size i+1 (len == MaxBatch).
	batchSizes []atomic.Uint64

	// batch is the dispatcher-owned scratch of the batched classify path.
	// parallel.Batcher runs all batches from one goroutine (in-flight
	// bound 1), so this state needs no locking and is reused batch to
	// batch.
	batch batchRun

	// vcache is the optional content-hash verdict cache (nil when
	// Config.VerdictCache is 0).
	vcache      *verdictCache
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// holdBatch, when set (tests only), runs before each batch executes —
	// the hook chaos tests use to keep the pipeline busy deterministically.
	holdBatch func(batch []*job)
}

// batchRun is the reusable per-dispatch state of the batched classify
// path: the live (non-expired) jobs, their sessions, one borrowed pipeline
// per job, and the core batch scratch.
type batchRun struct {
	jobs     []*job
	sessions []*csi.Session
	pls      []*core.Pipeline
	bs       core.BatchScratch
}

// New validates the configuration and starts the batch executor.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, batchSizes: make([]atomic.Uint64, cfg.MaxBatch)}
	if cfg.VerdictCache > 0 {
		s.vcache = newVerdictCache(cfg.VerdictCache)
	}
	b, err := parallel.NewBatcher[*job](cfg.QueueDepth, cfg.MaxBatch, 1, s.runBatch)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.batcher = b
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/identify", s.handleIdentify)
	mux.HandleFunc("POST /v1/identify/batch", s.handleBatchIdentify)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns a snapshot of the request counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Served:      s.served.Load(),
		Shed:        s.shed.Load(),
		Timeouts:    s.timeouts.Load(),
		Failed:      s.failed.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),
		BatchSizes:  make([]uint64, len(s.batchSizes)),
	}
	for i := range s.batchSizes {
		st.BatchSizes[i] = s.batchSizes[i].Load()
	}
	return st
}

// Shutdown begins the graceful drain: new requests are refused with 503
// (and /readyz goes not-ready so load balancers stop sending), while
// everything already admitted runs to completion. It returns when the
// batch executor is fully drained.
func (s *Server) Shutdown() {
	if s.draining.Swap(true) {
		return
	}
	s.batcher.Close()
}

// runBatch executes one coalesced batch: expired jobs are answered
// immediately, the rest are grouped by model (a hot-swap mid-batch can mix
// model snapshots) and each group runs batch-native — per-capture DSP on
// the bounded worker pool, then one blocked svm.PredictBatch over the whole
// group. Every job's result lands in its buffered done channel, so an
// abandoned (timed-out) request never blocks the batch.
func (s *Server) runBatch(batch []*job) {
	if s.holdBatch != nil {
		s.holdBatch(batch)
	}
	if n := len(batch); n >= 1 && n <= len(s.batchSizes) {
		s.batchSizes[n-1].Add(1)
	}
	st := &s.batch
	live := st.jobs[:0]
	for _, j := range batch {
		if err := j.ctx.Err(); err != nil {
			j.done <- jobResult{err: err}
			continue
		}
		live = append(live, j)
	}
	st.jobs = live
	// Group runs of jobs sharing a model snapshot. Jobs carry the model
	// pointer they were admitted under, so the scan needs no map; in steady
	// state the whole batch is one group, and a reload mid-batch just
	// splits it.
	for start := 0; start < len(live); {
		m := live[start].model
		end := start + 1
		for end < len(live) && live[end].model == m {
			end++
		}
		s.runModelGroup(m, live[start:end])
		start = end
	}
	// Drop job references so abandoned requests' sessions become
	// collectable before the next dispatch reuses the backing array.
	for i := range st.jobs {
		st.jobs[i] = nil
	}
	s.drain.observe(time.Now(), s.completed.Add(uint64(len(batch))))
}

// runModelGroup identifies one same-model slice of a batch via the batched
// core path: each job borrows a warmed pipeline for its DSP stage and the
// classifier predicts the whole group in one blocked call against the
// dispatcher-owned batch scratch.
func (s *Server) runModelGroup(m *registry.Model, jobs []*job) {
	st := &s.batch
	n := len(jobs)
	if cap(st.sessions) < n {
		st.sessions = make([]*csi.Session, n)
	}
	if cap(st.pls) < n {
		st.pls = make([]*core.Pipeline, n)
	}
	sessions := st.sessions[:n]
	pls := st.pls[:n]
	for i, j := range jobs {
		sessions[i] = j.session
		pls[i] = core.GetPipeline()
	}
	dets, errs := m.Identifier.IdentifyDetailedBatchP(&st.bs, pls, sessions, s.cfg.Workers)
	for i, j := range jobs {
		j.done <- jobResult{detail: dets[i], err: errs[i]}
		core.PutPipeline(pls[i])
		sessions[i] = nil
		pls[i] = nil
	}
}

func (s *Server) handleIdentify(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Every body is read whole into a pooled buffer, so a replayed request
	// can be answered by digest before paying the request decode, and so
	// the decode below is the very one a batch slot gets.
	raw := rawBodyPool.Get().(*bytes.Buffer)
	raw.Reset()
	if _, err := raw.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		rawBodyPool.Put(raw)
		httpError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	model := s.cfg.Registry.Active()
	if model == nil {
		rawBodyPool.Put(raw)
		httpError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	// The content hash of the answering model rides in a header on every
	// outcome from here on, so a gateway can detect a stale backend
	// without parsing bodies.
	w.Header().Set(ModelVersionHeader, model.Version)
	// The verdict cache keys on the raw request bytes plus the answering
	// model's content hash, so a duplicate capture skips request decoding,
	// trace decoding and the whole pipeline — and a hot-swap invalidates
	// by construction: entries under the old version can never match again
	// and age out of the LRU.
	var vkey cacheKey
	if s.vcache != nil {
		vkey = cacheKey{digest: sha256.Sum256(raw.Bytes()), version: model.Version}
		if det, ok := s.vcache.get(vkey); ok {
			rawBodyPool.Put(raw)
			s.cacheHits.Add(1)
			s.served.Add(1)
			writeJSONIntegrity(w, r, http.StatusOK, IdentifyResponse{
				Material:     det.Material,
				Omega:        det.Omega,
				Confidence:   det.Confidence,
				ModelVersion: model.Version,
			})
			return
		}
		s.cacheMisses.Add(1)
	}
	sc := scratchPool.Get().(*decodeScratch)
	session, err := sc.decodeSession(raw.Bytes())
	rawBodyPool.Put(raw) // the session holds no reference into the raw body
	if err != nil {
		scratchPool.Put(sc)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	j := &job{ctx: ctx, session: session, model: model, done: make(chan jobResult, 1)}
	switch err := s.batcher.Submit(j); {
	case errors.Is(err, parallel.ErrSaturated):
		scratchPool.Put(sc)
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.retryAfterHint()))
		httpError(w, http.StatusTooManyRequests, "admission queue full, retry later")
		return
	case errors.Is(err, parallel.ErrClosed):
		scratchPool.Put(sc)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	select {
	case res := <-j.done:
		// The worker has delivered, so nothing references the session any
		// more; the response below carries no aliases into the scratch.
		scratchPool.Put(sc)
		if res.err != nil {
			if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
				s.timeouts.Add(1)
				httpError(w, http.StatusGatewayTimeout, "request deadline exceeded while queued")
				return
			}
			s.failed.Add(1)
			httpError(w, http.StatusUnprocessableEntity, "identification failed: %v", res.err)
			return
		}
		// Encode before choosing the status, and cache only what went out
		// as a 200: a verdict that cannot be encoded is a failure, never
		// an empty 200 or a cached one.
		e, ok := encodeJSON(IdentifyResponse{
			Material:     res.detail.Material,
			Omega:        res.detail.Omega,
			Confidence:   res.detail.Confidence,
			ModelVersion: model.Version,
		})
		if !ok {
			s.failed.Add(1)
			e.send(w, r, http.StatusInternalServerError)
			return
		}
		s.served.Add(1)
		if s.vcache != nil {
			s.vcache.put(vkey, res.detail)
		}
		e.send(w, r, http.StatusOK)
	case <-ctx.Done():
		// The batch worker may still be reading the session: the scratch
		// must NOT go back to the pool. The garbage collector reclaims it
		// once the worker drops its reference.
		s.timeouts.Add(1)
		httpError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	m, err := s.cfg.Registry.Reload()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "reload failed (previous model still active): %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"modelVersion": m.Version,
		"path":         m.Path,
		"loadedAt":     m.LoadedAt.UTC().Format(time.RFC3339),
	})
}

// modelJSON caches the /v1/model happy-path body for one loaded model.
// Registry.Reload always swaps the active *registry.Model pointer (and with
// it the history), so pointer identity is exactly the cache key.
type modelJSON struct {
	m    *registry.Model
	body []byte
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m := s.cfg.Registry.Active()
	if m == nil {
		httpError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	if c := s.modelCache.Load(); c != nil && c.m == m {
		writeRawJSON(w, http.StatusOK, c.body)
		return
	}
	body, err := json.Marshal(map[string]any{
		"modelVersion": m.Version,
		"path":         m.Path,
		"loadedAt":     m.LoadedAt.UTC().Format(time.RFC3339),
		"history":      s.cfg.Registry.History(),
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding model info: %v", err)
		return
	}
	body = append(body, '\n') // match the Encoder framing of writeJSON
	s.modelCache.Store(&modelJSON{m: m, body: body})
	writeRawJSON(w, http.StatusOK, body)
}

// healthzBody is the static /healthz response.
var healthzBody = []byte("ok\n")

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(healthzBody)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := !s.draining.Load() && s.cfg.Registry.Active() != nil
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	version := ""
	if m := s.cfg.Registry.Active(); m != nil {
		version = m.Version
	}
	writeJSON(w, status, map[string]any{
		"ready":        ready,
		"modelVersion": version,
		"queued":       s.batcher.QueueLen(),
		"stats":        s.Stats(),
	})
}

// decodeScratch owns one request's decode memory: a matrix arena the trace
// records fill, the packet slices of both captures and the session they are
// assembled into. A scratch is recycled through scratchPool once the batch
// worker is provably done with the session — never on the timeout path,
// where the worker may still be reading it.
type decodeScratch struct {
	arena    csi.MatrixArena
	br       bytes.Reader
	baseline csi.Capture
	target   csi.Capture
	session  csi.Session
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// rawBodyPool recycles the buffers request bodies are read into; each grows
// to body size once and is then reused.
var rawBodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeSession decodes one /v1/identify body — the JSON request, then both
// embedded .csitrace streams — into the scratch-owned session. A single
// request and every batch slot come through here, so the two paths accept
// exactly the same bodies and reject the rest with the same error. The
// returned session aliases the scratch's arena, not body, and is valid
// until the scratch is pooled again.
//
// The canonical body, which every in-repo client sends, is decoded
// without the JSON scanner (canonicalTraces); every other body goes
// through json.Unmarshal, so both paths decode the same traces and a
// rejected body gets json.Unmarshal's error either way.
func (sc *decodeScratch) decodeSession(body []byte) (*csi.Session, error) {
	buf := traceBufPool.Get().(*[]byte)
	defer traceBufPool.Put(buf) // the session aliases the arena, never buf
	baseline, target, ok := canonicalTraces(body, buf)
	if !ok {
		var req IdentifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		baseline, target = req.Baseline, req.Target
	}
	return sc.decodeTraces(baseline, target)
}

// decodeTraces decodes a request's two .csitrace streams into the
// scratch-owned session.
func (sc *decodeScratch) decodeTraces(baseline, target []byte) (*csi.Session, error) {
	sc.arena.Reset()
	if len(baseline) == 0 || len(target) == 0 {
		return nil, fmt.Errorf("request needs both baseline and target traces")
	}
	carrier, err := sc.decodeTrace(&sc.baseline, baseline)
	if err != nil {
		return nil, fmt.Errorf("baseline trace: %w", err)
	}
	if _, err := sc.decodeTrace(&sc.target, target); err != nil {
		return nil, fmt.Errorf("target trace: %w", err)
	}
	sc.session = csi.Session{Carrier: carrier, Baseline: sc.baseline, Target: sc.target}
	if err := sc.session.Validate(); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return &sc.session, nil
}

// traceBufPool lends decodeSession the buffer the canonical path decodes
// both traces into; it goes back before decodeSession returns, so a batch
// holding many decoded slots holds one such buffer at most.
var traceBufPool = sync.Pool{New: func() any { return new([]byte) }}

// canonicalTraces decodes the canonical /v1/identify body — exactly what
// json.Marshal of an IdentifyRequest emits,
//
//	{"baseline":"<base64>","target":"<base64>"}
//
// followed only by JSON whitespace — straight from body into *buf, and
// reports false for anything else: escapes, inner whitespace, another key
// order or spelling, null, or base64 that does not decode. For a body it
// accepts, json.Unmarshal would decode the very same bytes, because a
// string with no escapes unquotes to itself and encoding/json decodes a
// []byte field with the same base64.StdEncoding.Decode.
func canonicalTraces(body []byte, buf *[]byte) (baseline, target []byte, ok bool) {
	rest, ok1 := bytes.CutPrefix(body, []byte(`{"baseline":"`))
	b64Baseline, rest, ok2 := bytes.Cut(rest, []byte(`"`))
	rest, ok3 := bytes.CutPrefix(rest, []byte(`,"target":"`))
	b64Target, rest, ok4 := bytes.Cut(rest, []byte(`"`))
	rest, ok5 := bytes.CutPrefix(rest, []byte(`}`))
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return nil, nil, false
	}
	nb := base64.StdEncoding.DecodedLen(len(b64Baseline))
	n := nb + base64.StdEncoding.DecodedLen(len(b64Target))
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	dst := (*buf)[:n]
	if baseline, ok = decodeBase64(dst[:nb], b64Baseline); !ok {
		return nil, nil, false
	}
	if target, ok = decodeBase64(dst[nb:], b64Target); !ok {
		return nil, nil, false
	}
	return baseline, target, true
}

// decodeBase64 decodes one canonical span into dst. The decoder itself
// rejects any byte outside the standard alphabet and misplaced padding,
// but it skips '\r' and '\n', which JSON forbids raw inside a string. A
// decode that skipped any when len(src) is a multiple of four skipped at
// least four, which costs at least three output bytes against the length
// the span's padding implies, so the length check sends it to the
// fallback.
func decodeBase64(dst, src []byte) ([]byte, bool) {
	n, err := base64.StdEncoding.Decode(dst, src)
	if err != nil || len(src)%4 != 0 {
		return nil, false
	}
	want := len(src) / 4 * 3
	switch {
	case bytes.HasSuffix(src, []byte("==")):
		want -= 2
	case bytes.HasSuffix(src, []byte("=")):
		want--
	}
	return dst[:n], n == want
}

func (sc *decodeScratch) decodeTrace(dst *csi.Capture, data []byte) (float64, error) {
	sc.br.Reset(data)
	defer sc.br.Reset(nil) // data may be a borrowed buffer; keep no reference
	r, err := trace.NewReader(&sc.br)
	if err != nil {
		return 0, err
	}
	r.SetMatrixSource(sc.arena.NewMatrix)
	dst.Packets = dst.Packets[:0]
	for {
		p, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return r.Header().Carrier, nil
		}
		if err != nil {
			return 0, err
		}
		dst.Packets = append(dst.Packets, p)
	}
}

// ModelVersionHeader carries the answering model's content hash on
// /v1/identify responses — the signal wimi-gateway uses to detect
// backends serving a stale model.
const ModelVersionHeader = "X-Wimi-Model"

// IntegrityHeader, sent by a client on /v1/identify, asks the server to
// stamp responses with BodyCRCHeader. The only supported value is
// "crc32". The gateway requests it on every forwarded call so a response
// corrupted on the wire (bit flips, silent truncation) is detected and
// retried instead of relayed — the response-path twin of the trace
// reader's record CRCs.
const IntegrityHeader = "X-Wimi-Integrity"

// BodyCRCHeader carries the IEEE CRC32 of the response body (decimal),
// present only when the request opted in via IntegrityHeader.
const BodyCRCHeader = "X-Wimi-Body-Crc32"

func retryAfterSeconds(d time.Duration) string {
	return fmt.Sprintf("%d", retryAfterSecondsInt(d))
}

// drainMeter measures the batch executor's completion rate (jobs/sec) as
// an EWMA over ≥50ms sampling windows, so the Retry-After hint reflects
// actual drain speed rather than one batch's luck.
type drainMeter struct {
	mu    sync.Mutex
	lastT time.Time
	lastC uint64
	rate  float64
}

// observe folds a completion-counter reading into the rate estimate.
func (d *drainMeter) observe(now time.Time, completed uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastT.IsZero() {
		d.lastT, d.lastC = now, completed
		return
	}
	dt := now.Sub(d.lastT)
	if dt < 50*time.Millisecond {
		return
	}
	inst := float64(completed-d.lastC) / dt.Seconds()
	if d.rate == 0 {
		d.rate = inst
	} else {
		d.rate = 0.5*d.rate + 0.5*inst
	}
	d.lastT, d.lastC = now, completed
}

// currentRate returns the jobs/sec estimate (0 until enough samples).
func (d *drainMeter) currentRate() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rate
}

// retryAfterHint computes the 429 Retry-After from live load: how long
// the current queue takes to drain at the measured rate. Before any rate
// is known it falls back to the configured constant.
func (s *Server) retryAfterHint() time.Duration {
	return computeRetryAfter(s.batcher.QueueLen(), s.drain.currentRate(), s.cfg.RetryAfter)
}

// computeRetryAfter is the pure hint calculation: queued work divided by
// drain rate, clamped to [1s, 60s]; a zero/unknown rate yields the
// fallback.
func computeRetryAfter(queued int, ratePerSec float64, fallback time.Duration) time.Duration {
	if ratePerSec <= 0 {
		if fallback <= 0 {
			return time.Second
		}
		return fallback
	}
	if queued < 1 {
		queued = 1
	}
	hint := time.Duration(float64(queued) / ratePerSec * float64(time.Second))
	if hint < time.Second {
		return time.Second
	}
	if hint > time.Minute {
		return time.Minute
	}
	return hint
}

// jsonEncoder is a pooled buffer + encoder pair: writeJSON marshals into
// the reusable buffer and hands the response to the ResponseWriter in one
// Write, instead of allocating an encoder (and its internal state) per
// response.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// encodeJSON encodes v into a pooled encoder before any status is chosen.
// When v cannot be encoded (a NaN, say) the body becomes the encoder's
// error instead and ok is false, so the caller answers 500 rather than
// its intended status over an empty body. send releases the encoder.
func encodeJSON(v any) (e *jsonEncoder, ok bool) {
	e = jsonEncPool.Get().(*jsonEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		e.buf.Reset()
		_ = e.enc.Encode(map[string]string{"error": "encoding response: " + err.Error()})
		return e, false
	}
	return e, true
}

// send writes the encoded body with status and returns the encoder to the
// pool. A non-nil r that carried IntegrityHeader gets the body's CRC32 in
// BodyCRCHeader; non-opted requests pay nothing.
func (e *jsonEncoder) send(w http.ResponseWriter, r *http.Request, status int) {
	if r != nil && r.Header.Get(IntegrityHeader) == "crc32" {
		sum := crc32.ChecksumIEEE(e.buf.Bytes())
		w.Header().Set(BodyCRCHeader, strconv.FormatUint(uint64(sum), 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
	jsonEncPool.Put(e)
}

// writeJSON answers status with v's encoding, or 500 when v cannot be
// encoded.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeJSONIntegrity(w, nil, status, v)
}

// writeJSONIntegrity is writeJSON plus the opt-in body checksum of send.
func writeJSONIntegrity(w http.ResponseWriter, r *http.Request, status int, v any) {
	e, ok := encodeJSON(v)
	if !ok {
		status = http.StatusInternalServerError
	}
	e.send(w, r, status)
}

// writeRawJSON sends a pre-encoded JSON body.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
