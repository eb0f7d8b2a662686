package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
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
// admission (shedding per slot, not per request), per-request deadline,
// the same identify call and error isolation — so slot i's outcome matches
// what the i-th of N sequential /v1/identify calls would have returned, a
// malformed slot included, while the transport cost (HTTP round trip,
// headers, connection) is paid once. Admitted slots run on up to Workers
// goroutines.
func (s *Server) handleBatchIdentify(w http.ResponseWriter, r *http.Request) {
	if s.adm.closed() {
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

	// Decode every slot first, then admit the decoded ones.
	type decoded struct {
		slot    int
		sc      *decodeScratch
		session *csi.Session
	}
	results := make([]BatchSlot, len(bodies))
	slots := make([]decoded, 0, len(bodies))
	for i, body := range bodies {
		sc := scratchPool.Get().(*decodeScratch)
		session, err := sc.decodeSession(body)
		if err != nil {
			scratchPool.Put(sc)
			results[i] = slotError(http.StatusBadRequest, "%v", err)
			continue
		}
		slots = append(slots, decoded{slot: i, sc: sc, session: session})
	}
	rawBodyPool.Put(raw) // every slot is decoded; no session aliases the frame
	// Slots beyond the free room each get the answer a single request
	// would.
	admitted, open := s.adm.admit(len(slots))
	if admitted > 0 {
		s.batchSizes[admitted-1].Add(1)
	}
	for _, d := range slots[admitted:] {
		scratchPool.Put(d.sc)
		status, msg, retryAfter := s.shedOrDrain(open)
		results[d.slot] = slotError(status, "%s", msg)
		if retryAfter > 0 {
			results[d.slot].RetryAfterSec = retryAfterSecondsInt(retryAfter)
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	live := slots[:admitted]
	_ = parallel.ForEach(len(live), s.cfg.Workers, func(k int) error {
		d := live[k]
		det, err := s.identify(ctx, model, d.session)
		scratchPool.Put(d.sc)
		results[d.slot] = s.slotAnswer(det, err, model.Version)
		return nil
	})
	for i := range results {
		results[i].ModelVersion = model.Version
	}
	writeJSONIntegrity(w, r, http.StatusOK, BatchIdentifyResponse{Results: results})
}

// slotAnswer renders one admitted slot's outcome as the single path would
// answer it, counting it the same way.
func (s *Server) slotAnswer(det core.Detail, err error, version string) BatchSlot {
	if err != nil {
		status, msg := s.failure(err)
		return slotError(status, "%s", msg)
	}
	body, err := json.Marshal(IdentifyResponse{
		Material:     det.Material,
		Omega:        det.Omega,
		Confidence:   det.Confidence,
		ModelVersion: version,
	})
	if err != nil {
		// The single path's answer to an unencodable verdict.
		s.failed.Add(1)
		return slotError(http.StatusInternalServerError, "encoding response: %v", err)
	}
	s.served.Add(1)
	return BatchSlot{Status: http.StatusOK, Body: body}
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
