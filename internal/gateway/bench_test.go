package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/material"
	"repro/internal/simulate"
)

// BenchmarkGatewayRelay measures the gateway data plane end to end:
// client → gateway → one real serve backend and back, CRC-verified.
//
//	single     one sequential relay per op through an unbatched gateway
//	batched8   eight concurrent distinct requests per op through a
//	           -batch 8 gateway: they aggregate into upstream batch calls
//	coalesced  eight concurrent identical requests per op through the
//	           same gateway: one upstream call, seven coalesced followers
func BenchmarkGatewayRelay(b *testing.B) {
	fx := newClusterFixture(b)
	// Two more captures, so batched8 relays eight distinct bodies: none
	// coalesce, and every one rides an upstream batch.
	bodies := append([][]byte(nil), fx.bodies...)
	m, err := material.PaperDatabase().Get(material.PureWater)
	if err != nil {
		b.Fatal(err)
	}
	sc := simulate.Default()
	sc.Liquid = &m
	for seed := int64(424_243); len(bodies) < 8; seed++ {
		s, err := simulate.Session(sc, seed)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, encodeIdentify(b, s))
	}
	backend := startServeBackend(b, fx, nil)
	newGateway := func(batchMax int) *httptest.Server {
		g, err := New(Config{
			Backends:      []string{backend.URL},
			ProbeInterval: 50 * time.Millisecond,
			BatchMax:      batchMax,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(g.Close)
		ts := httptest.NewServer(g.Handler())
		b.Cleanup(ts.Close)
		waitRoutable(b, g, 1)
		return ts
	}
	post := func(client *http.Client, url string, body []byte) error {
		resp, err := client.Post(url+"/v1/identify", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	post8 := func(b *testing.B, ts *httptest.Server, pick func(i int) []byte) {
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = post(ts.Client(), ts.URL, pick(i))
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}

	plain := newGateway(1)
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := post(plain.Client(), plain.URL, bodies[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	batched := newGateway(8)
	b.Run("batched8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post8(b, batched, func(i int) []byte { return bodies[i] })
		}
	})
	b.Run("coalesced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post8(b, batched, func(int) []byte { return bodies[0] })
		}
	})
}
