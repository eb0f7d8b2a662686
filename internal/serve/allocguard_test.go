package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/material"
	"repro/internal/raceflag"
)

// maxIdentifyAllocs bounds the steady-state allocation count of one whole
// in-process /v1/identify round trip: request/recorder construction, JSON +
// base64 decode of two traces, job submission and the response write. The
// DSP pipeline and CSI decode contribute zero — a warmed run measures ~80;
// the bound leaves headroom for runtime jitter while still catching any
// per-sample allocation sneaking back into the hot path (which costs
// hundreds at once).
const maxIdentifyAllocs = 160

// TestHandleIdentifyAllocSteadyState guards the serve fast path: once pools
// are warm, a request must not pay per-packet or per-subcarrier
// allocations.
func TestHandleIdentifyAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	fx := newFixture(t, []string{material.PureWater, material.Honey, material.Oil})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	body := encodeRequest(t, fx.sessions[0])
	h := s.Handler()
	do := func() {
		req := httptest.NewRequest("POST", "/v1/identify", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 5; i++ { // warm the scratch, pipeline and encoder pools
		do()
	}
	avg := testing.AllocsPerRun(30, do)
	if avg > maxIdentifyAllocs {
		t.Fatalf("steady-state identify request allocates %.1f times per run, want <= %d", avg, maxIdentifyAllocs)
	}
}
