package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/serve"
)

// proxyResult is one backend answer, read fully so it can be verified
// before anything reaches the client.
type proxyResult struct {
	backend *backend
	status  int
	header  http.Header
	body    []byte
}

// spillError classifies an alive-but-full backend answer (429, or 503
// while draining): the request should immediately try another backend,
// and the answering one sits out Retry-After.
type spillError struct {
	res   *proxyResult
	after time.Duration
}

func (e *spillError) Error() string {
	return fmt.Sprintf("backend %s shed the request (HTTP %d, retry after %v)",
		e.res.backend.url, e.res.status, e.after)
}

// permanentError classifies a backend 4xx that retrying elsewhere cannot
// fix (malformed body, oversized request, identification failure): the
// backend's answer is relayed verbatim.
type permanentError struct{ res *proxyResult }

func (e *permanentError) Error() string {
	return fmt.Sprintf("backend %s rejected the request (HTTP %d)", e.res.backend.url, e.res.status)
}

// staleError classifies a verified answer from the wrong model version:
// never relayed, retried on a converged backend instead.
type staleError struct {
	url string
	got string
}

func (e *staleError) Error() string {
	return fmt.Sprintf("backend %s answered from stale model %s", e.url, e.got)
}

// errIntegrity reports a response whose body failed CRC verification —
// corrupted or truncated on the wire.
var errIntegrity = errors.New("gateway: response failed integrity check")

// bufPool recycles the data plane's large scratch buffers: client request
// bodies, upstream batch assemblies and upstream response reads. Final
// answer bodies are small exact-size copies so they can be shared across
// coalesced clients; only the big transient scratch cycles through here.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pooledBody is a refcounted pooled buffer serving as an upstream request
// body. Request-side scratch can be aliased by readers that outlive the
// function that launched them — a batch flush holding an abandoned slot,
// and net/http itself when a backend answers 4xx/429 before draining the
// request (the transport's write loop may still be reading the bytes as
// the response returns). Every reader holds a reference; the buffer returns
// to bufPool only when the last reference drops, so no status-based
// guessing about whether the body was consumed is ever needed.
type pooledBody struct {
	buf  *bytes.Buffer
	refs atomic.Int64
}

// newPooledBody wraps buf with one reference owned by the caller.
func newPooledBody(buf *bytes.Buffer) *pooledBody {
	pb := &pooledBody{buf: buf}
	pb.refs.Store(1)
	return pb
}

func (p *pooledBody) bytes() []byte { return p.buf.Bytes() }

// retain takes a reference. Callers must already hold one — retaining a
// fully released body would resurrect a buffer another handler may own.
func (p *pooledBody) retain() { p.refs.Add(1) }

// tryRetain takes a reference only if the body is still live; it is the
// safe form for callbacks (GetBody) that may fire after release.
func (p *pooledBody) tryRetain() bool {
	for {
		n := p.refs.Load()
		if n <= 0 {
			return false
		}
		if p.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference, repooling the buffer on the last.
func (p *pooledBody) release() {
	if p.refs.Add(-1) == 0 {
		bufPool.Put(p.buf)
	}
}

// attach mounts p as req's body. The transport closes a request body
// exactly once — on success, on error, and on context cancellation — so
// tying the reference to Close releases at the earliest provably safe
// moment. GetBody hands replays (transport retries on stale reused
// connections) their own reference. The caller must hold a reference
// across the attach.
func (p *pooledBody) attach(req *http.Request) {
	p.retain()
	req.Body = &releaseReader{Reader: bytes.NewReader(p.bytes()), pb: p}
	req.GetBody = func() (io.ReadCloser, error) {
		if !p.tryRetain() {
			return nil, errors.New("gateway: pooled request body already recycled")
		}
		return &releaseReader{Reader: bytes.NewReader(p.bytes()), pb: p}, nil
	}
}

// releaseReader is a pooledBody view whose Close drops the reference.
type releaseReader struct {
	*bytes.Reader
	pb   *pooledBody
	once sync.Once
}

func (r *releaseReader) Close() error {
	r.once.Do(func() { r.pb.release() })
	return nil
}

// readBodyCRC drains r (bounded at limit) into dst while folding the
// bytes through an IEEE CRC32 in the same pass — the relay path computes
// its integrity check while the body streams in, instead of rescanning
// the buffer afterwards.
func readBodyCRC(dst *bytes.Buffer, r io.Reader, limit int64) (uint32, error) {
	h := crc32.NewIEEE()
	_, err := dst.ReadFrom(io.TeeReader(io.LimitReader(r, limit), h))
	return h.Sum32(), err
}

// send performs one verified request to one backend. A nil error means
// res is a CRC-checked, parseable 200 from the expected model version;
// every other outcome comes back as a classified error. Breaker
// admission and outcome recording, penalty setting and stale marking all
// happen here, so every attempt — first or retry, single or split back
// out of a batch — is accounted the same way.
func (g *Gateway) send(ctx context.Context, b *backend, body *pooledBody) (*proxyResult, error) {
	if err := b.breaker.Allow(); err != nil {
		return nil, err
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/identify", bytes.NewReader(body.bytes()))
	if err != nil {
		b.breaker.Record(false)
		return nil, err
	}
	body.attach(req)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.IntegrityHeader, "crc32")
	resp, err := g.do(req)
	if err != nil {
		b.breaker.Record(false)
		b.failures.Add(1)
		b.noteErr(err)
		return nil, err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	crc, err := readBodyCRC(buf, resp.Body, 1<<20)
	_ = resp.Body.Close()
	if err != nil {
		bufPool.Put(buf)
		b.breaker.Record(false)
		b.failures.Add(1)
		b.noteErr(err)
		return nil, err
	}
	// The exact-size copy frees the pooled scratch immediately and makes
	// the result body safe to hand to any number of coalesced clients.
	respBody := append([]byte(nil), buf.Bytes()...)
	bufPool.Put(buf)
	res := &proxyResult{backend: b, status: resp.StatusCode, header: resp.Header, body: respBody}

	switch {
	case resp.StatusCode == http.StatusOK:
		if err := verifyIdentifyBody(resp.Header, respBody, crc); err != nil {
			// A corrupted answer is a failed attempt: the link (or the
			// backend) is mangling bytes.
			b.breaker.Record(false)
			b.failures.Add(1)
			b.noteErr(err)
			return nil, err
		}
		if exp := g.ExpectedVersion(); exp != "" {
			if got := resp.Header.Get(serve.ModelVersionHeader); got != "" && got != exp {
				// Alive and answering — from the wrong model. Exclude from
				// routing until the probe loop converges it.
				b.breaker.Record(true)
				b.stale.Store(true)
				return nil, &staleError{url: b.url, got: got}
			}
		}
		b.breaker.Record(true)
		b.served.Add(1)
		return res, nil

	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Alive but refusing load: honour Retry-After as a routing
		// penalty, not as a breaker failure.
		b.breaker.Record(true)
		after := resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), g.clock.Now())
		b.penalise(g.clock.Now(), after)
		return res, &spillError{res: res, after: after}

	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		b.breaker.Record(true)
		return res, &permanentError{res: res}

	default: // 5xx and anything unexpected
		b.breaker.Record(false)
		b.failures.Add(1)
		err := fmt.Errorf("gateway: backend %s answered HTTP %d", b.url, resp.StatusCode)
		b.noteErr(err)
		return res, err
	}
}

// do runs one upstream data-plane request with the connection-reuse trace
// attached, so /v1/cluster can report how warm the idle pool runs.
func (g *Gateway) do(req *http.Request) (*http.Response, error) {
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), g.connTrace))
	return g.client.Do(req)
}

// verifyIdentifyBody is the never-wrong gate on a 200: the CRC the
// backend stamped before the bytes hit the wire must match the streaming
// CRC computed while the body arrived (its absence is itself a failure —
// the gateway always requests it), and the body must parse as a complete
// identification.
func verifyIdentifyBody(h http.Header, body []byte, got uint32) error {
	crcHeader := h.Get(serve.BodyCRCHeader)
	if crcHeader == "" {
		return fmt.Errorf("%w: no %s header on 200", errIntegrity, serve.BodyCRCHeader)
	}
	want, err := strconv.ParseUint(crcHeader, 10, 32)
	if err != nil {
		return fmt.Errorf("%w: bad %s %q", errIntegrity, serve.BodyCRCHeader, crcHeader)
	}
	if uint64(got) != want {
		return fmt.Errorf("%w: body crc %d, header says %d", errIntegrity, got, want)
	}
	var out serve.IdentifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("%w: unparseable body: %v", errIntegrity, err)
	}
	if out.Material == "" {
		return fmt.Errorf("%w: empty material", errIntegrity)
	}
	return nil
}

// outcomeKind labels how one client request ended, for the Stats
// counters; deliver increments exactly one per answered request.
type outcomeKind int

const (
	outcomeProxied   outcomeKind = iota // verified backend 200
	outcomeRelayed                      // backend 4xx passed through
	outcomeShed                         // gateway 429: every backend full
	outcomeFailed                       // gateway 503: no verified answer
	outcomeAbandoned                    // client gone; nothing written
)

// clientAnswer is a fully rendered reply to one client request — status,
// the headers that matter and the body bytes. Rendering answers into a
// value instead of writing them straight to the ResponseWriter is what
// lets coalesced followers share the leader's answer verbatim.
type clientAnswer struct {
	outcome      outcomeKind
	status       int
	backendURL   string
	contentType  string
	modelVersion string
	retryAfter   string
	body         []byte
}

func answerFromResult(res *proxyResult, outcome outcomeKind) clientAnswer {
	return clientAnswer{
		outcome:      outcome,
		status:       res.status,
		backendURL:   res.backend.url,
		contentType:  res.header.Get("Content-Type"),
		modelVersion: res.header.Get(serve.ModelVersionHeader),
		retryAfter:   res.header.Get("Retry-After"),
		body:         res.body,
	}
}

func errorAnswer(outcome outcomeKind, status int, retryAfter string, format string, args ...any) clientAnswer {
	buf, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return clientAnswer{
		outcome:     outcome,
		status:      status,
		contentType: "application/json",
		retryAfter:  retryAfter,
		body:        append(buf, '\n'),
	}
}

// deliver writes one rendered answer and settles its Stats counter. It is
// the single exit for every answered client request — leaders, followers
// and the unbatched path all come through here, so each client request
// counts exactly once no matter how it was satisfied upstream.
func (g *Gateway) deliver(w http.ResponseWriter, ans clientAnswer) {
	switch ans.outcome {
	case outcomeAbandoned:
		return
	case outcomeProxied:
		g.proxied.Add(1)
	case outcomeRelayed:
		g.relayed.Add(1)
	case outcomeShed:
		g.shed.Add(1)
	case outcomeFailed:
		g.failed.Add(1)
	}
	if ans.contentType != "" {
		w.Header().Set("Content-Type", ans.contentType)
	}
	if ans.modelVersion != "" {
		w.Header().Set(serve.ModelVersionHeader, ans.modelVersion)
	}
	if ans.retryAfter != "" {
		w.Header().Set("Retry-After", ans.retryAfter)
	}
	if ans.backendURL != "" {
		w.Header().Set(BackendHeader, ans.backendURL)
	}
	w.WriteHeader(ans.status)
	_, _ = w.Write(ans.body)
}

// identify is the routing core, and the gateway's one retry loop: pick →
// send → classify under one shrinking deadline budget, rendered as a
// clientAnswer. ctx is the client's own context on the unbatched path and
// a detached one for a coalescing leader (followers are owed the answer
// even if the leading client hangs up). When the routed backend runs an
// upstream batcher (the batched data plane), the first attempt rides its
// micro-batch; any failure there splits back to per-slot single relays,
// each retrying under this request's own remaining budget.
func (g *Gateway) identify(ctx context.Context, body *pooledBody) clientAnswer {
	budget := resilience.NewBudget(g.clock, g.cfg.RequestTimeout)
	// The backends this request has tried; the array keeps up to 8 of
	// them off the heap.
	var triedBuf [8]*backend
	tried := triedBuf[:0]
	sawSpill := false
	var lastErr error
	for attempt := 0; attempt < g.cfg.MaxAttempts; attempt++ {
		if budget.Remaining() < g.cfg.MinAttempt {
			break
		}
		b := g.pick(tried)
		if b == nil && len(tried) > 0 {
			// Every routable backend has been tried once: open the field
			// for revisits rather than giving up with budget left.
			tried = tried[:0]
			b = g.pick(tried)
		}
		if b == nil {
			break
		}
		tried = append(tried, b)
		if attempt > 0 {
			g.retried.Add(1)
		}
		attemptCtx, cancel := budget.Context(ctx)
		var res *proxyResult
		var err error
		if attempt == 0 && b.batcher != nil {
			res, err = g.sendBatched(attemptCtx, b, body)
		} else {
			res, err = g.send(attemptCtx, b, body)
		}
		cancel()
		if err == nil {
			return answerFromResult(res, outcomeProxied)
		}
		lastErr = err
		if ctx.Err() != nil {
			return clientAnswer{outcome: outcomeAbandoned}
		}
		var perm *permanentError
		var spill *spillError
		var stale *staleError
		switch {
		case errors.As(err, &perm):
			// The request itself is the problem; the backend's verdict
			// stands no matter who we'd ask.
			return answerFromResult(perm.res, outcomeRelayed)
		case errors.As(err, &spill):
			sawSpill = true
			g.spilled.Add(1)
			continue // immediate spillover: another backend may have room
		case errors.As(err, &stale), errors.Is(err, resilience.ErrBreakerOpen):
			continue // not a load signal; move on without sleeping
		}
		// Hard failure (network error, 5xx, integrity): back off before
		// the next try, but never sleep past the budget.
		if attempt == g.cfg.MaxAttempts-1 {
			break
		}
		wait := g.backoff.Delay(attempt)
		if wait+g.cfg.MinAttempt > budget.Remaining() {
			break
		}
		if g.clock.Sleep(ctx, wait) != nil {
			return clientAnswer{outcome: outcomeAbandoned}
		}
	}

	// Degraded exit: no verified answer in budget. Honest shed when the
	// cluster told us it is full, 503 otherwise — always with a
	// Retry-After so well-behaved clients pace themselves.
	ra := retryAfterSeconds(g.retryAfterHint())
	if sawSpill {
		return errorAnswer(outcomeShed, http.StatusTooManyRequests, ra,
			"all backends at capacity, retry later")
	}
	if lastErr == nil {
		lastErr = errors.New("no routable backend whose breaker admits the request")
	}
	return errorAnswer(outcomeFailed, http.StatusServiceUnavailable, ra,
		"no backend could answer: %v", lastErr)
}

func (g *Gateway) handleIdentify(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "gateway is draining")
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)); err != nil {
		bufPool.Put(buf)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "reading request: %v", err)
		return
	}
	pb := newPooledBody(buf)
	defer pb.release()
	if g.cfg.BatchMax > 1 {
		g.identifyCoalesced(w, r, pb)
		return
	}
	ans := g.identify(r.Context(), pb)
	g.deliver(w, ans)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, _ := json.Marshal(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(buf, '\n'))
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
