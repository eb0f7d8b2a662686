package serve

import (
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

// BatchIdentifyRequest is the POST /v1/identify/batch body: N independent
// identify requests answered in one HTTP round trip. The slots feed the
// same micro-batching executor the single endpoint uses, admitted
// together so they run as one blocked batch classification (up to
// MaxBatch slots per batch) instead of N requests racing each other
// through the admission queue.
type BatchIdentifyRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchSlot is one slot of a batch answer. Status and Body are exactly
// the HTTP status and JSON body the single /v1/identify endpoint would
// have produced for the slot's request — minus the trailing newline the
// single path's encoder appends, which the consumer restores when it
// turns a slot back into a standalone response. That convention makes a
// relayed slot byte-identical to a relayed single response.
type BatchSlot struct {
	Status int `json:"status"`
	// ModelVersion mirrors the X-Wimi-Model header of the single path for
	// 200 slots, so a relay can restore the header without parsing Body.
	ModelVersion string `json:"modelVersion,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on 429/503 slots.
	RetryAfterSec int64           `json:"retryAfterSec,omitempty"`
	Body          json.RawMessage `json:"body"`
}

// BatchIdentifyResponse is the POST /v1/identify/batch answer; Results is
// parallel to the request's Requests.
type BatchIdentifyResponse struct {
	Results []BatchSlot `json:"results"`
}

// slotJSON renders a slot body: the same compact encoding the single
// path's pooled encoder produces, without the trailing newline.
func slotJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return b
}

func slotError(status int, format string, args ...any) BatchSlot {
	return BatchSlot{Status: status, Body: slotJSON(map[string]string{"error": fmt.Sprintf(format, args...)})}
}

// handleBatchIdentify answers POST /v1/identify/batch. Every slot travels
// the exact machinery of the single path — pooled decode scratch, batcher
// admission (shedding per slot, not per request), per-slot deadline and
// error isolation — so slot i's outcome matches what the i-th of N
// sequential /v1/identify calls would have returned, while the transport
// cost (HTTP round trip, headers, connection) is paid once. The verdict
// cache is not consulted here: the batch endpoint exists for gateways,
// which deduplicate upstream via in-flight coalescing before the batch is
// ever assembled.
func (s *Server) handleBatchIdentify(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req BatchIdentifyRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding batch request: %v", err)
		return
	}
	n := len(req.Requests)
	if n == 0 {
		httpError(w, http.StatusBadRequest, "batch request needs at least one slot")
		return
	}
	if n > MaxBatchSlots {
		httpError(w, http.StatusBadRequest, "batch of %d slots exceeds the limit of %d", n, MaxBatchSlots)
		return
	}
	model := s.cfg.Registry.Active()
	if model == nil {
		httpError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	w.Header().Set(ModelVersionHeader, model.Version)

	// Decode every slot first, then admit them all at once.
	results := make([]BatchSlot, n)
	jobs := make([]*job, 0, n)
	scs := make([]*decodeScratch, 0, n) // scs[k] holds jobs[k]'s session
	slots := make([]int, 0, n)          // slots[k] is the slot jobs[k] answers
	for i, raw := range req.Requests {
		var ir IdentifyRequest
		if err := json.Unmarshal(raw, &ir); err != nil {
			results[i] = slotError(http.StatusBadRequest, "decoding request: %v", err)
			continue
		}
		sc := scratchPool.Get().(*decodeScratch)
		session, err := sc.decodeSession(ir)
		if err != nil {
			scratchPool.Put(sc)
			results[i] = slotError(http.StatusBadRequest, "%v", err)
			continue
		}
		jobs = append(jobs, &job{session: session, model: model, done: make(chan jobResult, 1)})
		scs = append(scs, sc)
		slots = append(slots, i)
	}
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
				s.served.Add(1)
				results[i] = BatchSlot{
					Status:       http.StatusOK,
					ModelVersion: model.Version,
					Body: slotJSON(IdentifyResponse{
						Material:     res.detail.Material,
						Omega:        res.detail.Omega,
						Confidence:   res.detail.Confidence,
						ModelVersion: model.Version,
					}),
				}
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
