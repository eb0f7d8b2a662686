package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/material"
	"repro/internal/registry"
)

// BenchmarkServeIdentify measures the end-to-end serve latency: HTTP
// round-trip, trace decode, pipeline, classification. "single" is the
// sequential floor; "batched" drives concurrent clients so requests
// coalesce through the micro-batching executor.
func BenchmarkServeIdentify(b *testing.B) {
	model, sessions, _ := trainModel(b, []string{material.PureWater, material.Honey, material.Oil})
	path := filepath.Join(b.TempDir(), "model.json")
	if err := os.WriteFile(path, model, 0o644); err != nil {
		b.Fatal(err)
	}
	reg, err := registry.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Registry: reg, MaxBatch: 8, QueueDepth: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := encodeRequest(b, sessions[0])

	post := func(client *http.Client) error {
		resp, err := client.Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	b.Run("single", func(b *testing.B) {
		client := ts.Client()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := post(client); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("batched", func(b *testing.B) {
		b.SetParallelism(8) // 8×GOMAXPROCS client goroutines → real coalescing
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			client := ts.Client()
			for pb.Next() {
				if err := post(client); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// The replay scenario: identical bodies against a verdict-cache-enabled
	// server answer from the LRU without decoding or running the pipeline.
	b.Run("cached", func(b *testing.B) {
		cs, err := New(Config{Registry: reg, MaxBatch: 8, QueueDepth: 256, VerdictCache: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer cs.Shutdown()
		cts := httptest.NewServer(cs.Handler())
		defer cts.Close()
		client := cts.Client()
		postCached := func() error {
			resp, err := client.Post(cts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		}
		if err := postCached(); err != nil { // populate the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := postCached(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
