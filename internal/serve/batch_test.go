package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/material"
	"repro/internal/registry"
)

// TestRunBatchMatchesSingle drives the executor's batch path directly
// with crafted batches and pins it against per-session IdentifyDetailedP:
// every answer must match exactly, expired jobs must be answered with
// their context error without poisoning neighbours, mixed-model batches
// must split into per-model groups, and the size histogram must record
// each executed batch.
func TestRunBatchMatchesSingle(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey, material.Oil})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	model := fx.registry.Active()
	want := make([]core.Detail, len(fx.sessions))
	for i, sess := range fx.sessions {
		det, err := model.Identifier.IdentifyDetailedP(core.NewPipeline(), sess)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = det
	}
	newJob := func(i int) *job {
		return &job{ctx: context.Background(), session: fx.sessions[i], model: model, done: make(chan jobResult, 1)}
	}
	for size := 1; size <= 8; size++ {
		batch := make([]*job, size)
		for i := range batch {
			batch[i] = newJob(i % len(fx.sessions))
		}
		s.runBatch(batch)
		for i, j := range batch {
			res := <-j.done
			if res.err != nil {
				t.Fatalf("size %d job %d: %v", size, i, res.err)
			}
			if res.detail != want[i%len(fx.sessions)] {
				t.Fatalf("size %d job %d: batched %+v, single %+v", size, i, res.detail, want[i%len(fx.sessions)])
			}
		}
	}
	stats := s.Stats()
	for size := 1; size <= 8; size++ {
		if stats.BatchSizes[size-1] == 0 {
			t.Fatalf("histogram did not record the size-%d batch: %v", size, stats.BatchSizes)
		}
	}

	// An expired job is answered with its context error; its neighbours
	// still classify exactly.
	expiredCtx, cancel := context.WithCancel(context.Background())
	cancel()
	expired := &job{ctx: expiredCtx, session: fx.sessions[0], model: model, done: make(chan jobResult, 1)}
	ok0, ok1 := newJob(0), newJob(1)
	s.runBatch([]*job{ok0, expired, ok1})
	if res := <-expired.done; res.err == nil {
		t.Fatal("expired job was not answered with its context error")
	}
	if res := <-ok0.done; res.err != nil || res.detail != want[0] {
		t.Fatalf("neighbour 0 of expired job: %+v, %v", res.detail, res.err)
	}
	if res := <-ok1.done; res.err != nil || res.detail != want[1] {
		t.Fatalf("neighbour 1 of expired job: %+v, %v", res.detail, res.err)
	}

	// A mid-batch model swap means jobs carry different snapshots; the
	// batch must split into per-model groups and still answer exactly.
	alias := &registry.Model{Version: model.Version, Path: model.Path, LoadedAt: model.LoadedAt, Identifier: model.Identifier}
	jA, jB, jC := newJob(0), newJob(1), newJob(2)
	jB.model = alias
	s.runBatch([]*job{jA, jB, jC})
	for i, j := range []*job{jA, jB, jC} {
		res := <-j.done
		if res.err != nil || res.detail != want[i] {
			t.Fatalf("mixed-model job %d: %+v, %v", i, res.detail, res.err)
		}
	}
}

// TestBatchedIdentifyMatchesSingleHTTP pins the end-to-end contract: for
// identical captures, answers produced by coalesced batches equal the
// answers of lone requests, field for field.
func TestBatchedIdentifyMatchesSingleHTTP(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry, MaxBatch: 8})
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
	// Wedge the executor on the first concurrent post so the rest pile
	// into the admission queue and provably coalesce.
	hold := holdExecutor(s)
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
	hold.waitQueued(t, s, len(bodies))
	hold.unblock()
	wg.Wait()
	for i := range results {
		if results[i] != single[i] {
			t.Fatalf("capture %d: batched answer %+v, single answer %+v", i, results[i], single[i])
		}
	}
	if st := s.Stats(); coalescedBatches(st) == 0 {
		t.Fatalf("no batch coalesced more than one request: %v", st.BatchSizes)
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
