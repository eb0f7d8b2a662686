package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/material"
)

// TestBatchedIdentifyMatchesSingleHTTP pins the end-to-end contract: for
// identical captures, answers produced by requests that waited for a
// pipeline slot behind others equal the answers of lone requests, field
// for field.
func TestBatchedIdentifyMatchesSingleHTTP(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := make([][]byte, len(fx.sessions))
	single := make([]IdentifyResponse, len(fx.sessions))
	for i, sess := range fx.sessions {
		bodies[i] = encodeRequest(t, sess)
		resp, out := postIdentify(t, ts, bodies[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: status %d", i, resp.StatusCode)
		}
		single[i] = out
	}
	// Hold the pipeline slots until every concurrent post is admitted, so
	// all but two of them provably wait for a slot.
	hold := holdSlots(s)
	var wg sync.WaitGroup
	results := make([]IdentifyResponse, len(bodies))
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postIdentify(t, ts, bodies[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent %d: status %d", i, resp.StatusCode)
				return
			}
			results[i] = out
		}(i)
	}
	waitFor(t, hold, "every post to be admitted", func() bool { return s.adm.unfinished() == len(bodies) })
	hold.unblock()
	wg.Wait()
	for i := range results {
		if results[i] != single[i] {
			t.Fatalf("capture %d: concurrent answer %+v, single answer %+v", i, results[i], single[i])
		}
	}
}
