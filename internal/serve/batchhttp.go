package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/parallel"
)

// MaxBatchSlots bounds how many captures one POST /v1/identify/batch may
// carry. It is deliberately larger than any sane gateway BatchMax and
// exists only so a hostile body cannot queue unbounded work.
const MaxBatchSlots = 64

// BatchSlot is one slot of a batch answer. Status and Body are exactly
// the HTTP status and JSON body the single /v1/identify endpoint would
// have produced for the slot's request — minus the trailing newline the
// single path's encoder appends, which the consumer restores when it
// turns a slot back into a standalone response. That convention makes a
// relayed slot byte-identical to a relayed single response.
type BatchSlot struct {
	Status int `json:"status"`
	// ModelVersion mirrors the X-Wimi-Model header the single path sends
	// once it has snapshotted the model — on every slot, malformed ones
	// included — so a relay can restore the header without parsing Body.
	ModelVersion string `json:"modelVersion,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on 429/503 slots.
	RetryAfterSec int64           `json:"retryAfterSec,omitempty"`
	Body          json.RawMessage `json:"body"`
}

// BatchIdentifyResponse is the POST /v1/identify/batch answer; Results is
// parallel to the request frame's slots.
type BatchIdentifyResponse struct {
	Results []BatchSlot `json:"results"`
}

// slotError renders a failed slot. Slot bodies are the same compact
// encoding the single path's pooled encoder produces, without the trailing
// newline.
func slotError(status int, format string, args ...any) BatchSlot {
	b, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return BatchSlot{Status: status, Body: b}
}

// handleBatchIdentify answers POST /v1/identify/batch, whose body is a
// batch frame (frame.go) of raw /v1/identify bodies. A bad frame is
// rejected whole with 400; inside a good one, every slot travels the exact
// machinery of the single path — the shared decode, pooled scratch,
// batcher admission (shedding per slot, not per request), per-slot
// deadline and error isolation — so slot i's outcome matches what the i-th
// of N sequential /v1/identify calls would have returned, a malformed slot
// included, while the transport cost (HTTP round trip, headers,
// connection) is paid once. The verdict cache is not consulted here: the
// batch endpoint exists for gateways, which deduplicate upstream via
// in-flight coalescing before the batch is ever assembled.
func (s *Server) handleBatchIdentify(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	model := s.cfg.Registry.Active()
	if model == nil {
		httpError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	raw := rawBodyPool.Get().(*bytes.Buffer)
	raw.Reset()
	_, err := raw.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	var bodies [][]byte
	if err == nil {
		bodies, err = ParseBatchFrame(raw.Bytes())
	}
	if err != nil {
		rawBodyPool.Put(raw)
		httpError(w, http.StatusBadRequest, "bad batch request: %v", err)
		return
	}
	w.Header().Set(ModelVersionHeader, model.Version)

	// Decode every slot first, then admit them all at once.
	n := len(bodies)
	results := make([]BatchSlot, n)
	jobs := make([]*job, 0, n)
	scs := make([]*decodeScratch, 0, n) // scs[k] holds jobs[k]'s session
	slots := make([]int, 0, n)          // slots[k] is the slot jobs[k] answers
	for i, body := range bodies {
		sc := scratchPool.Get().(*decodeScratch)
		session, err := sc.decodeSession(body)
		if err != nil {
			scratchPool.Put(sc)
			results[i] = slotError(http.StatusBadRequest, "%v", err)
			continue
		}
		jobs = append(jobs, &job{session: session, model: model, done: make(chan jobResult, 1)})
		scs = append(scs, sc)
		slots = append(slots, i)
	}
	rawBodyPool.Put(raw) // every slot is decoded; no session aliases the frame
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	for _, j := range jobs {
		j.ctx = ctx
	}
	// One admission for every decoded slot: the dispatcher drains them
	// together, so on an idle server up to MaxBatch slots run as one batch
	// by construction. Shedding stays per slot — those beyond the free
	// queue depth each get the 429 a single request would.
	admitted, err := s.batcher.SubmitAll(jobs)
	for k := admitted; k < len(jobs); k++ {
		i := slots[k]
		scratchPool.Put(scs[k])
		if errors.Is(err, parallel.ErrClosed) {
			results[i] = slotError(http.StatusServiceUnavailable, "server is draining")
			continue
		}
		s.shed.Add(1)
		results[i] = slotError(http.StatusTooManyRequests, "admission queue full, retry later")
		results[i].RetryAfterSec = retryAfterSecondsInt(s.retryAfterHint())
	}
	for k, j := range jobs[:admitted] {
		i := slots[k]
		select {
		case res := <-j.done:
			// Worker provably done with the session: the scratch recycles.
			scratchPool.Put(scs[k])
			switch {
			case res.err == nil:
				body, err := json.Marshal(IdentifyResponse{
					Material:     res.detail.Material,
					Omega:        res.detail.Omega,
					Confidence:   res.detail.Confidence,
					ModelVersion: model.Version,
				})
				if err != nil {
					// The single path's answer to an unencodable verdict.
					s.failed.Add(1)
					results[i] = slotError(http.StatusInternalServerError, "encoding response: %v", err)
					continue
				}
				s.served.Add(1)
				results[i] = BatchSlot{Status: http.StatusOK, Body: body}
			case errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled):
				s.timeouts.Add(1)
				results[i] = slotError(http.StatusGatewayTimeout, "request deadline exceeded while queued")
			default:
				s.failed.Add(1)
				results[i] = slotError(http.StatusUnprocessableEntity, "identification failed: %v", res.err)
			}
		case <-ctx.Done():
			// The worker may still be reading the session; the scratch is
			// abandoned to the garbage collector, exactly like the single
			// path's timeout exit.
			s.timeouts.Add(1)
			results[i] = slotError(http.StatusGatewayTimeout, "request deadline exceeded")
		}
	}
	for i := range results {
		results[i].ModelVersion = model.Version
	}
	writeJSONIntegrity(w, r, http.StatusOK, BatchIdentifyResponse{Results: results})
}

// retryAfterSecondsInt is retryAfterSeconds for the slot field: ceiling
// seconds, floored at 1.
func retryAfterSecondsInt(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
