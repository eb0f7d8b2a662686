// Gateway data plane, batched mode (Config.BatchMax > 1). Two mechanisms
// stack on top of the routing core in proxy.go:
//
//   - In-flight coalescing: client requests with byte-identical bodies
//     (the common case under retry storms and periodic re-measurement)
//     elect a leader; followers wait for the leader's answer and share
//     its bytes. One upstream call amortises across N clients.
//   - Upstream micro-batching: distinct concurrent requests routed to
//     the same backend aggregate — bounded by BatchMax — into one POST
//     /v1/identify/batch, so the backend admits and classifies them as
//     one blocked batch instead of N racing singles. Batching is
//     opportunistic: at most upstreamInflight flushes per backend are in
//     flight, a request that finds a flush slot free goes upstream at
//     once, and requests that arrive while all are busy form the next
//     batch.
//
// The upstream body is a serve batch frame: each client body rides as one
// length-prefixed opaque slot, so the gateway never inspects a body's
// syntax — a malformed one is a slot like any other and gets serve's own
// per-slot 400. Failure stays per-slot: a batch-level error or a
// retryable slot answer is delivered to that slot's own routing loop,
// which carries on with single relays under its own remaining deadline
// budget.
package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// batchRespLimit bounds one upstream batch response read. Slots are small
// (an identification verdict or an error line), so this is generous.
const batchRespLimit = 8 << 20

// errBatchRefused reports a batch-level 4xx: the backend could not take the
// frame at all (an older serve build without the route, or one that reads
// another envelope). Every rider goes straight down the single path
// inside sendBatched, with no routing attempt spent.
var errBatchRefused = errors.New("gateway: backend refused the batch frame")

// upstreamCall is one request riding an upstream micro-batch. body holds
// a reference taken at submit time and released by the flush once the
// bytes can no longer be read on the call's behalf.
type upstreamCall struct {
	ctx  context.Context
	body *pooledBody
	done chan upstreamResult // buffered 1; flush always delivers
}

type upstreamResult struct {
	res *proxyResult
	err error
}

// upstreamInflight bounds the flushes in flight per backend. Serve runs a
// pipeline per request on every core, so a backend keeps more than one
// flush busy. The bound was measured while serve still ran every pipeline
// on one dispatcher goroutine: on a 2-vCPU host (three backends, eight
// closed-loop clients, distinct bodies) a bound of 2 raised p90 and p99 by
// about 10% against unbounded flushing, while 3, 4 and 8 did not. A slow
// backend stalls only its own flushes; its queue keeps collecting the
// next batch, and sheds to the single path once full.
const upstreamInflight = 4

// startBatcher wires b's upstream micro-batcher.
func (g *Gateway) startBatcher(b *backend) {
	batcher, err := parallel.NewBatcher(g.cfg.BatchMax*8, g.cfg.BatchMax, upstreamInflight,
		func(batch []*upstreamCall) { g.flushBatch(b, batch) })
	if err != nil {
		// Config was defaulted to sane values; this cannot happen.
		panic(err)
	}
	b.batcher = batcher
}

// sendBatched routes one request through b's upstream micro-batcher,
// falling back to a plain send when the queue is saturated or closed, or
// when the backend refused the frame its call rode. An abandoned wait
// (context expiry) leaves the flush holding its own reference on body, so
// the backing buffer stays live until the flush is provably done with it.
func (g *Gateway) sendBatched(ctx context.Context, b *backend, body *pooledBody) (*proxyResult, error) {
	call := &upstreamCall{ctx: ctx, body: body, done: make(chan upstreamResult, 1)}
	body.retain() // the flush's reference; released by flushBatch
	// A call queued behind the in-flight flushes is load on b as much as
	// one on the wire, so least-loaded routing counts it; flushBatch hands
	// the count back once a dispatcher takes the call.
	b.inflight.Add(1)
	if b.batcher.Submit(call) != nil {
		// Saturated or draining: the single path still works.
		b.inflight.Add(-1)
		body.release()
		return g.send(ctx, b, body)
	}
	select {
	case r := <-call.done:
		if errors.Is(r.err, errBatchRefused) {
			return g.send(ctx, b, body)
		}
		return r.res, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flushBatch delivers one drained batch: expired riders are answered
// their context error immediately (a deadline that passed while queued
// must not consume backend work), survivors are partitioned into
// envelope-sized chunks, a chunk of one travels the plain single-relay
// path, and two or more go upstream as one batch call.
func (g *Gateway) flushBatch(b *backend, calls []*upstreamCall) {
	b.inflight.Add(-int64(len(calls))) // send and sendBatchUpstream count them from here
	defer func() {
		// The submit-time references: past this point the flush can no
		// longer read any rider's body.
		for _, c := range calls {
			c.body.release()
		}
	}()
	live := make([]*upstreamCall, 0, len(calls))
	for _, c := range calls {
		if err := c.ctx.Err(); err != nil {
			c.done <- upstreamResult{err: err}
			continue
		}
		live = append(live, c)
	}
	// Partition into chunks the backend is willing to read: serve bounds
	// the whole frame at its MaxBodyBytes (assumed to match ours — both
	// default 16 MiB) and the slot count at MaxBatchSlots, so several
	// individually-legal large captures must not be glued into one doomed
	// 400. A body too big to share a frame forms a chunk of one and rides
	// the single path, whose raw body the backend does accept.
	maxSlots := min(g.cfg.BatchMax, serve.MaxBatchSlots)
	for start := 0; start < len(live); {
		end, payload := start, int64(0)
		for end < len(live) && end-start < maxSlots {
			next := payload + int64(len(live[end].body.bytes()))
			if end > start && serve.BatchFrameSize(end-start+1, next) > g.cfg.MaxBodyBytes {
				break
			}
			payload = next
			end++
		}
		chunk := live[start:end]
		start = end
		if n := len(chunk); n <= len(g.batchSizes) {
			g.batchSizes[n-1].Add(1)
		}
		if len(chunk) == 1 {
			c := chunk[0]
			res, err := g.send(c.ctx, b, c.body)
			c.done <- upstreamResult{res: res, err: err}
			continue
		}
		g.batchesSent.Add(1)
		g.sendBatchUpstream(b, chunk)
	}
}

// sendBatchUpstream performs one POST /v1/identify/batch and classifies
// every slot with the same vocabulary the single path uses, so the
// routing loop upstairs cannot tell how its attempt travelled.
func (g *Gateway) sendBatchUpstream(b *backend, calls []*upstreamCall) {
	deliverAll := func(err error) {
		for _, c := range calls {
			c.done <- upstreamResult{err: err}
		}
	}
	if err := b.breaker.Allow(); err != nil {
		deliverAll(err)
		return
	}
	b.inflight.Add(int64(len(calls)))
	defer b.inflight.Add(int64(-len(calls)))

	// Frame the raw client bodies, relayed verbatim and never re-encoded.
	bodies := make([][]byte, len(calls))
	payload := int64(0)
	for i, c := range calls {
		bodies[i] = c.body.bytes()
		payload += int64(len(bodies[i]))
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(int(serve.BatchFrameSize(len(bodies), payload)))
	buf.Write(serve.AppendBatchFrame(buf.AvailableBuffer(), bodies))
	env := newPooledBody(buf)

	// The wire call may run as long as the most patient rider.
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	var latest time.Time
	for _, c := range calls {
		if dl, ok := c.ctx.Deadline(); ok && dl.After(latest) {
			latest = dl
		}
	}
	if !latest.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, latest)
	}
	defer cancel()

	fail := func(err error) {
		b.breaker.Record(false)
		b.failures.Add(1)
		b.noteErr(err)
		deliverAll(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/identify/batch", bytes.NewReader(buf.Bytes()))
	if err != nil {
		env.release()
		fail(err)
		return
	}
	env.attach(req)
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(serve.IntegrityHeader, "crc32")
	resp, err := g.do(req)
	// Drop the assembly reference only after Do returns: a backend that
	// answers before draining the request (or a broken connection) leaves
	// the transport holding its own reference, and the buffer repools
	// when the transport Closes it — never while it may still be read.
	env.release()
	if err != nil {
		fail(err)
		return
	}

	rbuf := bufPool.Get().(*bytes.Buffer)
	rbuf.Reset()
	crc, rerr := readBodyCRC(rbuf, resp.Body, batchRespLimit)
	_ = resp.Body.Close()
	if rerr != nil {
		bufPool.Put(rbuf)
		fail(rerr)
		return
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Whole-batch shed: penalise once, spill every rider.
		bufPool.Put(rbuf)
		b.breaker.Record(true)
		after := resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), g.clock.Now())
		b.penalise(g.clock.Now(), after)
		res := &proxyResult{backend: b, status: resp.StatusCode, header: resp.Header}
		for _, c := range calls {
			c.done <- upstreamResult{err: &spillError{res: res, after: after}}
		}
		return

	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The backend could not take the frame: no batch route (404/405),
		// or an undersized limit on its side. That is a request problem,
		// not backend health — the single path records a 4xx as breaker
		// success too — and each rider's own body may still be fine, so
		// every rider goes down the single path for its own verdict.
		bufPool.Put(rbuf)
		b.breaker.Record(true)
		deliverAll(errBatchRefused)
		return

	case resp.StatusCode != http.StatusOK:
		bufPool.Put(rbuf)
		fail(fmt.Errorf("gateway: backend %s answered HTTP %d to a batch", b.url, resp.StatusCode))
		return
	}

	// 200: the body CRC covers every slot at once.
	if err := verifyBatchBody(resp.Header, crc); err != nil {
		bufPool.Put(rbuf)
		fail(err)
		return
	}
	var out serve.BatchIdentifyResponse
	if err := json.Unmarshal(rbuf.Bytes(), &out); err != nil {
		bufPool.Put(rbuf)
		fail(fmt.Errorf("%w: unparseable batch body: %v", errIntegrity, err))
		return
	}
	bufPool.Put(rbuf) // Unmarshal copied the slot bodies out
	if len(out.Results) != len(calls) {
		fail(fmt.Errorf("%w: %d slots answered for %d sent", errIntegrity, len(out.Results), len(calls)))
		return
	}
	b.breaker.Record(true)
	expected := g.ExpectedVersion()
	for i, c := range calls {
		c.done <- g.classifySlot(b, out.Results[i], expected)
	}
}

// verifyBatchBody checks the whole-response CRC of a batch 200.
func verifyBatchBody(h http.Header, got uint32) error {
	crcHeader := h.Get(serve.BodyCRCHeader)
	if crcHeader == "" {
		return fmt.Errorf("%w: no %s header on batch 200", errIntegrity, serve.BodyCRCHeader)
	}
	want, err := strconv.ParseUint(crcHeader, 10, 32)
	if err != nil {
		return fmt.Errorf("%w: bad %s %q", errIntegrity, serve.BodyCRCHeader, crcHeader)
	}
	if uint64(got) != want {
		return fmt.Errorf("%w: batch body crc %d, header says %d", errIntegrity, got, want)
	}
	return nil
}

// classifySlot maps one batch slot onto the single-path outcome
// vocabulary. The slot body plus the trailing newline the single path's
// encoder would have appended is byte-identical to a single relay.
func (g *Gateway) classifySlot(b *backend, slot serve.BatchSlot, expected string) upstreamResult {
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	if slot.ModelVersion != "" {
		hdr.Set(serve.ModelVersionHeader, slot.ModelVersion)
	}
	if slot.RetryAfterSec > 0 {
		hdr.Set("Retry-After", strconv.FormatInt(slot.RetryAfterSec, 10))
	}
	body := make([]byte, 0, len(slot.Body)+1)
	body = append(append(body, slot.Body...), '\n')
	res := &proxyResult{backend: b, status: slot.Status, header: hdr, body: body}

	switch {
	case slot.Status == http.StatusOK:
		var out serve.IdentifyResponse
		if err := json.Unmarshal(slot.Body, &out); err != nil || out.Material == "" {
			b.failures.Add(1)
			return upstreamResult{err: fmt.Errorf("%w: bad batch slot body", errIntegrity)}
		}
		if expected != "" && slot.ModelVersion != "" && slot.ModelVersion != expected {
			b.stale.Store(true)
			return upstreamResult{err: &staleError{url: b.url, got: slot.ModelVersion}}
		}
		b.served.Add(1)
		return upstreamResult{res: res}

	case slot.Status == http.StatusTooManyRequests || slot.Status == http.StatusServiceUnavailable:
		after := resilience.RetryAfterSeconds(slot.RetryAfterSec)
		b.penalise(g.clock.Now(), after)
		return upstreamResult{err: &spillError{res: res, after: after}}

	case slot.Status >= 400 && slot.Status < 500:
		return upstreamResult{res: res, err: &permanentError{res: res}}

	default: // slot-level 5xx (e.g. a per-slot queue timeout)
		b.failures.Add(1)
		err := fmt.Errorf("gateway: backend %s answered HTTP %d in a batch slot", b.url, slot.Status)
		b.noteErr(err)
		return upstreamResult{err: err}
	}
}

// coalesceKey identifies an in-flight answer: the request bytes plus the
// model generation they would be answered from. Including the expected
// version means a follower can never be handed an answer computed from a
// model the cluster has since moved off.
type coalesceKey struct {
	digest  [sha256.Size]byte
	version string
}

// inflightCall is one leader's pending answer; done closes once ans is
// immutable. Follower handlers block on done, then share ans verbatim.
type inflightCall struct {
	done chan struct{}
	ans  clientAnswer
}

// identifyCoalesced is the batched data plane's client entry: dedup
// identical in-flight requests, then route the survivors through the
// batching relay. The leader runs detached from its own client's context
// — followers that joined are owed the answer even if the leading client
// hangs up — but still bounded by the request deadline budget. The
// handler's own reference on body is released by handleIdentify's defer.
func (g *Gateway) identifyCoalesced(w http.ResponseWriter, r *http.Request, body *pooledBody) {
	ck := coalesceKey{digest: sha256.Sum256(body.bytes()), version: g.ExpectedVersion()}

	g.cmu.Lock()
	if c := g.inflight[ck]; c != nil {
		g.cmu.Unlock()
		// Follower: the digest replaces any need for the bytes.
		g.coalesced.Add(1)
		select {
		case <-c.done:
			g.deliver(w, c.ans)
		case <-r.Context().Done():
			// Client gone before the leader answered; nothing to write.
		}
		return
	}
	c := &inflightCall{done: make(chan struct{})}
	g.inflight[ck] = c
	g.cmu.Unlock()

	ans := g.identify(context.Background(), body)

	g.cmu.Lock()
	delete(g.inflight, ck)
	g.cmu.Unlock()
	c.ans = ans
	close(c.done)

	g.deliver(w, ans)
}
