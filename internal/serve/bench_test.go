package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/registry"
	"repro/internal/simulate"
)

// BenchmarkServeIdentify measures the end-to-end serve latency: HTTP
// round-trip, trace decode, pipeline, classification. "single" is the
// sequential floor; "batched" drives many concurrent clients, so requests
// wait for pipeline slots; "two-clients-100" is two closed-loop clients
// (run it at -cpu 2) posting 16 rotating, distinct 100-packet captures,
// the shape of the benchmark's serve-long workload.
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
	s, err := New(Config{Registry: reg, QueueDepth: 256})
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

	b.Run("two-clients-100", func(b *testing.B) {
		bodies := make([][]byte, 16)
		for i := range bodies {
			sc := simulate.Default()
			sc.Packets = 100
			sess, err := simulate.Session(sc, int64(1000+i))
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = encodeRequest(b, sess)
		}
		var next atomic.Int64
		b.SetParallelism(1)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := ts.Client()
			for pb.Next() {
				body := bodies[next.Add(1)%int64(len(bodies))]
				resp, err := client.Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		})
	})
}

// BenchmarkDecodeSession measures the request decode every /v1/identify
// body and batch slot pays: canonical bodies of 20 and 100 packets per
// capture take the path without the JSON scanner, and a pretty-printed
// 20-packet body takes the json.Unmarshal fallback. The canonical cases
// rotate over 16 distinct bodies, as serve sees distinct requests, so the
// decode does not read one cache-hot body.
func BenchmarkDecodeSession(b *testing.B) {
	sessions := func(packets, n int) []*csi.Session {
		out := make([]*csi.Session, n)
		for i := range out {
			sc := simulate.Default()
			sc.Packets = packets
			var err error
			if out[i], err = simulate.Session(sc, int64(11+i*7919)); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	bodies := func(ss []*csi.Session) [][]byte {
		out := make([][]byte, len(ss))
		for i, s := range ss {
			out[i] = encodeRequest(b, s)
		}
		return out
	}
	s20 := sessions(20, 16)
	pretty, err := json.MarshalIndent(IdentifyRequest{
		Baseline: encodeTrace(b, &s20[0].Baseline, s20[0].Carrier),
		Target:   encodeTrace(b, &s20[0].Target, s20[0].Carrier),
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		bodies [][]byte
	}{
		{"canonical-20", bodies(s20)},
		{"canonical-100", bodies(sessions(100, 16))},
		{"pretty-20", [][]byte{pretty}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc := new(decodeScratch)
			b.SetBytes(int64(len(bc.bodies[0])))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.decodeSession(bc.bodies[i%len(bc.bodies)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
