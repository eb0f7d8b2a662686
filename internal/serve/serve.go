// Package serve implements the online identification service behind
// cmd/wimi-serve: an HTTP/JSON front end over a registry of trained
// models, with bounded admission (load shedding), per-request deadlines
// and graceful drain.
//
// Request flow:
//
//	POST /v1/identify → decode traces → snapshot active model →
//	  admit (429 when saturated) → wait for a pipeline slot (504 when the
//	  deadline passes first) → run the pipeline on the handler goroutine →
//	  respond {material, omega, confidence, modelVersion}
//
// WiMi identifies one session at a time, so a request runs its own
// pipeline on the goroutine that decoded it; nothing waits for company
// and no dispatcher stands between the two. A counting semaphore of
// Workers slots keeps at most that many pipelines on the cores, and
// admission in front of it is a non-blocking count: a request that finds
// QueueDepth others already waiting for a slot is shed at once with
// Retry-After rather than queued into memory.
package serve

import (
	"bytes"
	"context"
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
	// QueueDepth bounds how many admitted requests may wait for a
	// pipeline slot; a request beyond QueueDepth waiting plus Workers
	// running is shed with HTTP 429 (default 64).
	QueueDepth int
	// Workers bounds how many pipelines run at once (default GOMAXPROCS).
	Workers int
	// RequestTimeout is the per-request deadline covering the wait for a
	// pipeline slot and the pipeline itself (default 10s).
	RequestTimeout time.Duration
	// RetryAfter is the fallback Retry-After hint for 429 responses,
	// used until a drain rate has been observed (default 1s). Once
	// requests have completed, the hint is computed instead: the requests
	// waiting for a slot divided by the measured drain rate, so a deep
	// queue behind a slow pipeline tells clients to stay away longer than
	// a blip does.
	RetryAfter time.Duration
	// MaxBodyBytes bounds the request body (default 16 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	c.Workers = parallel.DefaultWorkers(c.Workers)
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
	// BatchSizes[i] counts admitted requests that carried i+1 captures: a
	// /v1/identify request counts at index 0, a batch frame at the number
	// of its slots that were admitted.
	BatchSizes []uint64 `json:"batchSizes"`
}

// Server is the online identification service.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// adm counts the admitted, unfinished requests; slots is the counting
	// semaphore of Workers pipeline slots, one held (sent in) by each
	// running pipeline.
	adm   admission
	slots chan struct{}

	served   atomic.Uint64
	shed     atomic.Uint64
	timeouts atomic.Uint64
	failed   atomic.Uint64

	// completed counts finished captures (any outcome); the drain meter
	// turns it into a rate for the computed Retry-After hint.
	completed atomic.Uint64
	drain     drainMeter

	// modelCache holds the pre-encoded /v1/model body for the currently
	// active model.
	modelCache atomic.Pointer[modelJSON]

	// batchSizes[i] counts admitted requests of i+1 captures
	// (len == MaxBatchSlots).
	batchSizes []atomic.Uint64

	// holdSlot, when set (tests only), runs inside a request's pipeline
	// slot before its pipeline — the hook tests use to keep slots busy
	// deterministically.
	holdSlot func()
}

// New validates the configuration and builds the service.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: queue depth %d, need ≥ 0", cfg.QueueDepth)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		slots:      make(chan struct{}, cfg.Workers),
		batchSizes: make([]atomic.Uint64, MaxBatchSlots),
	}
	s.adm.limit, s.adm.drained = int64(cfg.QueueDepth+cfg.Workers), make(chan struct{})
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
		Served:     s.served.Load(),
		Shed:       s.shed.Load(),
		Timeouts:   s.timeouts.Load(),
		Failed:     s.failed.Load(),
		BatchSizes: make([]uint64, len(s.batchSizes)),
	}
	for i := range s.batchSizes {
		st.BatchSizes[i] = s.batchSizes[i].Load()
	}
	return st
}

// Shutdown begins the graceful drain: new requests are refused with 503
// (and /readyz goes not-ready so load balancers stop sending), while
// everything already admitted runs to completion. It returns once no
// admitted request is left waiting or running. Safe to call more than
// once.
func (s *Server) Shutdown() { s.adm.close() }

// admission is the non-blocking admission count: the requests admitted
// and not yet finished, waiting for a pipeline slot or running, bounded by
// limit. Its word also carries the closed flag, so admitting a request and
// seeing a drain begin are one atomic step: nothing is admitted once close
// has started waiting.
type admission struct {
	limit int64
	// n is the admitted, unfinished count, plus admissionClosed once
	// close has begun.
	n atomic.Int64
	// drained is closed once admission is closed and n has reached zero.
	drained chan struct{}
}

const admissionClosed = 1 << 62

// admit admits up to want requests without blocking and returns how many
// it admitted: fewer than want when the room left is smaller, 0 and
// open=false once closed.
func (a *admission) admit(want int) (n int, open bool) {
	for {
		v := a.n.Load()
		if v&admissionClosed != 0 {
			return 0, false
		}
		k := min(int64(want), a.limit-v)
		if k <= 0 {
			return 0, true
		}
		if a.n.CompareAndSwap(v, v+k) {
			return int(k), true
		}
	}
}

// release marks one admitted request finished.
func (a *admission) release() {
	if a.n.Add(-1) == admissionClosed {
		close(a.drained)
	}
}

// unfinished reports the admitted requests not yet finished.
func (a *admission) unfinished() int { return int(a.n.Load() &^ admissionClosed) }

// closed reports whether close has begun.
func (a *admission) closed() bool { return a.n.Load()&admissionClosed != 0 }

// close refuses every later admission and waits until each admitted
// request has finished.
func (a *admission) close() {
	v := a.n.Load()
	for v&admissionClosed == 0 && !a.n.CompareAndSwap(v, v|admissionClosed) {
		v = a.n.Load()
	}
	if v == 0 { // this call closed it, with nothing left to finish
		close(a.drained)
	}
	<-a.drained
}

// The two ways a request's deadline ends it before it has a verdict.
var (
	errExpiredQueued  = errors.New("request deadline exceeded while queued")
	errExpiredRunning = errors.New("request deadline exceeded")
)

// identify runs one admitted capture, then releases its admission: it
// waits for a pipeline slot until ctx ends, identifies session against m
// on a pooled pipeline and drops a verdict that arrives after ctx ended.
// The single path and every batch slot come through here.
func (s *Server) identify(ctx context.Context, m *registry.Model, session *csi.Session) (core.Detail, error) {
	defer s.finish()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return core.Detail{}, errExpiredQueued
	}
	if s.holdSlot != nil {
		s.holdSlot()
	}
	pl := core.GetPipeline()
	det, err := m.Identifier.IdentifyDetailedP(pl, session, nil)
	core.PutPipeline(pl)
	<-s.slots
	// The clock decides too: when a parent context's timer fires, its Done
	// closes before the timer's goroutine cancels the children, so ctx.Err()
	// can still be nil just after the deadline.
	if dl, ok := ctx.Deadline(); ctx.Err() != nil || (ok && !time.Now().Before(dl)) {
		return core.Detail{}, errExpiredRunning
	}
	return det, err
}

// finish releases one finished capture's admission and feeds the drain
// meter.
func (s *Server) finish() {
	s.adm.release()
	s.drain.observe(time.Now(), s.completed.Add(1))
}

// failure counts a failed identification and returns the status and
// message that the single path and a batch slot both answer it with.
func (s *Server) failure(err error) (int, string) {
	if errors.Is(err, errExpiredQueued) || errors.Is(err, errExpiredRunning) {
		s.timeouts.Add(1)
		return http.StatusGatewayTimeout, err.Error()
	}
	s.failed.Add(1)
	return http.StatusUnprocessableEntity, "identification failed: " + err.Error()
}

// shedOrDrain answers a request admission refused: 503 once draining,
// otherwise 429 with the computed Retry-After hint, counted as shed.
func (s *Server) shedOrDrain(open bool) (status int, msg string, retryAfter time.Duration) {
	if !open {
		return http.StatusServiceUnavailable, "server is draining", 0
	}
	s.shed.Add(1)
	return http.StatusTooManyRequests, "admission queue full, retry later", s.retryAfterHint()
}

func (s *Server) handleIdentify(w http.ResponseWriter, r *http.Request) {
	if s.adm.closed() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Every body is read whole into a pooled buffer, so the decode below
	// is the very one a batch slot gets.
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
	// The handler runs the pipeline itself, so once identify returns
	// nothing references the session and the scratch recycles on every
	// path, timeouts included.
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	session, err := sc.decodeSession(raw.Bytes())
	rawBodyPool.Put(raw) // the session holds no reference into the raw body
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n, open := s.adm.admit(1); n == 0 {
		status, msg, retryAfter := s.shedOrDrain(open)
		if retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		}
		httpError(w, status, "%s", msg)
		return
	}
	s.batchSizes[0].Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	det, err := s.identify(ctx, model, session)
	if err != nil {
		status, msg := s.failure(err)
		httpError(w, status, "%s", msg)
		return
	}
	// Encode before choosing the status: a verdict that cannot be encoded
	// is a failure, never an empty 200.
	e, ok := encodeJSON(IdentifyResponse{
		Material:     det.Material,
		Omega:        det.Omega,
		Confidence:   det.Confidence,
		ModelVersion: model.Version,
	})
	if !ok {
		s.failed.Add(1)
		e.send(w, r, http.StatusInternalServerError)
		return
	}
	s.served.Add(1)
	e.send(w, r, http.StatusOK)
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
	ready := !s.adm.closed() && s.cfg.Registry.Active() != nil
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
		"queued":       s.queued(),
		"stats":        s.Stats(),
	})
}

// decodeScratch owns one request's decode memory: a matrix arena the trace
// records fill, the packet slices of both captures and the session they are
// assembled into. A scratch is recycled through scratchPool once its
// capture's identify call has returned.
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
// order or spelling, null, or base64 outside decodeBase64's canonical set.
// For a body it accepts, json.Unmarshal would decode the very same bytes,
// because a string with no escapes unquotes to itself and decodeBase64
// returns what base64.StdEncoding.Decode, encoding/json's []byte decoder,
// returns for such a span.
func canonicalTraces(body []byte, buf *[]byte) (baseline, target []byte, ok bool) {
	rest, ok1 := bytes.CutPrefix(body, []byte(`{"baseline":"`))
	b64Baseline, rest, ok2 := bytes.Cut(rest, []byte(`"`))
	rest, ok3 := bytes.CutPrefix(rest, []byte(`,"target":"`))
	b64Target, rest, ok4 := bytes.Cut(rest, []byte(`"`))
	rest, ok5 := bytes.CutPrefix(rest, []byte(`}`))
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return nil, nil, false
	}
	nb := len(b64Baseline) / 4 * 3
	n := nb + len(b64Target)/4*3
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

// drainMeter measures the completion rate (captures/sec) as an EWMA over
// ≥50ms sampling windows, so the Retry-After hint reflects actual drain
// speed rather than one request's luck.
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

// currentRate returns the captures/sec estimate (0 until enough samples).
func (d *drainMeter) currentRate() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rate
}

// retryAfterHint computes the 429 Retry-After from live load: how long
// the requests waiting for a slot take to drain at the measured rate.
// Before any rate is known it falls back to the configured constant.
func (s *Server) retryAfterHint() time.Duration {
	return computeRetryAfter(s.queued(), s.drain.currentRate(), s.cfg.RetryAfter)
}

// queued reports how many admitted requests wait for a pipeline slot — a
// readiness / backpressure signal, inherently racy and advisory.
func (s *Server) queued() int { return max(0, s.adm.unfinished()-len(s.slots)) }

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
