package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
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

// TestVerdictCache covers the opt-in replay cache: identical bodies hit
// after the first miss and return identical answers, distinct bodies miss,
// the LRU stays bounded, and a model hot-swap invalidates every prior
// entry by construction.
func TestVerdictCache(t *testing.T) {
	liquids := []string{material.PureWater, material.Honey, material.Oil}
	fx := newFixture(t, liquids)
	s, err := New(Config{Registry: fx.registry, VerdictCache: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := encodeRequest(t, fx.sessions[0])
	_, first := postIdentify(t, ts, body)
	_, second := postIdentify(t, ts, body)
	if first != second {
		t.Fatalf("cached answer %+v differs from computed %+v", second, first)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("after replaying one body twice: hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	// Distinct captures miss; the LRU never exceeds its capacity.
	for i := 1; i < len(fx.sessions); i++ {
		if resp, _ := postIdentify(t, ts, encodeRequest(t, fx.sessions[i])); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d: status %d", i, resp.StatusCode)
		}
	}
	if got := s.vcache.len(); got > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", got)
	}
	if st = s.Stats(); st.CacheHits != 1 {
		t.Fatalf("distinct captures produced spurious hits: %d", st.CacheHits)
	}

	// A hot-swap changes the model version, so previously-cached bodies
	// miss and are recomputed against the new model.
	model2, _, _ := trainModel(t, []string{material.PureWater, material.Oil})
	if err := os.WriteFile(fx.path, model2, 0o644); err != nil {
		t.Fatal(err)
	}
	oldVersion := fx.registry.Active().Version
	if _, err := fx.registry.Reload(); err != nil {
		t.Fatal(err)
	}
	if fx.registry.Active().Version == oldVersion {
		t.Fatal("reload did not change the model version")
	}
	missesBefore := s.Stats().CacheMisses
	resp, swapped := postIdentify(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap replay: status %d", resp.StatusCode)
	}
	if swapped.ModelVersion == first.ModelVersion {
		t.Fatal("post-swap answer still carries the old model version")
	}
	if got := s.Stats().CacheMisses; got != missesBefore+1 {
		t.Fatalf("post-swap replay was served from the stale cache (misses %d, want %d)", got, missesBefore+1)
	}
}

// TestCacheOffByDefault pins the default: without Config.VerdictCache the
// counters stay zero even under replayed bodies.
func TestCacheOffByDefault(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := encodeRequest(t, fx.sessions[0])
	for i := 0; i < 3; i++ {
		if resp, _ := postIdentify(t, ts, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d", i, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("cache counters moved while disabled: %+v", st)
	}
}
