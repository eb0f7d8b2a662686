package gateway

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/raceflag"
)

// maxRelayAllocs bounds the steady-state allocation count of one whole
// in-process gateway relay: request/recorder construction, the pooled
// client-body read, one upstream HTTP round trip (net/http client
// machinery dominates), the pooled streaming-CRC response read and the
// answer write. A warmed run measures ~143; the bound leaves headroom
// for runtime jitter while catching a per-request buffer regression,
// which costs dozens at once.
const maxRelayAllocs = 220

// TestGatewayRelayAllocSteadyState guards the relay fast path: once the
// buffer pools and the upstream connection are warm, a relay must not
// pay per-body-byte allocations.
func TestGatewayRelayAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	f := newFakeBackend(t, "sha256:aaa", "water")
	g, _ := newTestGateway(t, Config{}, f)
	h := g.Handler()
	body := []byte(`{"baseline":"aGVsbG8=","target":"d29ybGQ=","padding":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`)
	do := func() {
		req := httptest.NewRequest("POST", "/v1/identify", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 10; i++ { // warm the pools and the upstream connection
		do()
	}
	avg := testing.AllocsPerRun(50, do)
	t.Logf("steady-state relay: %.1f allocations per run (bound %d)", avg, maxRelayAllocs)
	if avg > maxRelayAllocs {
		t.Fatalf("steady-state relay allocates %.1f times per run, want <= %d", avg, maxRelayAllocs)
	}
}
