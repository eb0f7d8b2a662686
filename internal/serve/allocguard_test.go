package serve

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/material"
	"repro/internal/raceflag"
)

// maxIdentifyAllocs bounds the steady-state allocation count of one whole
// in-process /v1/identify round trip: request/recorder construction, the
// request decode, the deadline context and the response write. A warmed
// run of the canonical 20-packet body measures 34. The DSP pipeline, the
// base64 decode (into a pooled buffer) and the trace records contribute
// zero; the decode's 6 are the two trace readers it opens, each with its
// payload buffer and matrix-source binding. The bound leaves headroom for
// runtime jitter while still catching a per-record allocation sneaking
// back into the hot path (a 20-packet session has 40 records).
const maxIdentifyAllocs = 48

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
	t.Logf("steady-state identify request: %.1f allocs per run", avg)
	if avg > maxIdentifyAllocs {
		t.Fatalf("steady-state identify request allocates %.1f times per run, want <= %d", avg, maxIdentifyAllocs)
	}
}
