package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/wimi"
)

// gatewayMicroBenchmarks measures the gateway data plane end to end —
// client → gateway → serve backend and back, CRC-verified — so benchdiff
// gates relay latency alongside the serve micros. Entries:
//
//	BenchmarkGatewayRelay/single     one sequential relay per op through
//	                                 an unbatched gateway (the pr9-era
//	                                 data plane)
//	BenchmarkGatewayRelay/batched8   eight concurrent distinct requests
//	                                 per op through a -batch 8 gateway:
//	                                 they aggregate into upstream batch
//	                                 calls
//	BenchmarkGatewayRelay/coalesced  eight concurrent identical requests
//	                                 per op: one upstream call, seven
//	                                 coalesced followers
func gatewayMicroBenchmarks() []benchMicro {
	dir, err := os.MkdirTemp("", "wimi-gatewaybench")
	if err != nil {
		panic(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	modelPath := filepath.Join(dir, "model.json")
	session := trainServeModel(modelPath)
	bodies := [][]byte{encodeIdentifyRequest(session)}
	// Seven more distinct sessions so the batched micro relays distinct
	// content (distinct bodies = no coalescing, real upstream batches).
	m, err := wimi.Liquid(wimi.PureWater)
	if err != nil {
		panic(err)
	}
	sc := wimi.DefaultScenario()
	sc.Liquid = &m
	extra, err := wimi.SimulateTrials(sc, 7, 424_243)
	if err != nil {
		panic(err)
	}
	for _, s := range extra {
		bodies = append(bodies, encodeIdentifyRequest(s))
	}

	reg, err := registry.Open(modelPath)
	if err != nil {
		panic(err)
	}
	backend, err := serve.New(serve.Config{
		Registry:   reg,
		MaxBatch:   8,
		QueueDepth: 256,
	})
	if err != nil {
		panic(err)
	}
	defer backend.Shutdown()
	backendTS := httptest.NewServer(backend.Handler())
	defer backendTS.Close()

	newGateway := func(batchMax int) (*gateway.Gateway, *httptest.Server) {
		g, err := gateway.New(gateway.Config{
			Backends:      []string{backendTS.URL},
			ProbeInterval: 50 * time.Millisecond,
			BatchMax:      batchMax,
		})
		if err != nil {
			panic(err)
		}
		ts := httptest.NewServer(g.Handler())
		waitGatewayReady(ts.URL)
		return g, ts
	}
	post := func(client *http.Client, url string, body []byte) {
		resp, err := client.Post(url+"/v1/identify", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		if resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("gateway bench: status %d", resp.StatusCode))
		}
		_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
		_ = resp.Body.Close()
	}
	post8 := func(client *http.Client, url string, pick func(i int) []byte) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				post(client, url, pick(i))
			}(i)
		}
		wg.Wait()
	}

	plain, plainTS := newGateway(1)
	plainClient := plainTS.Client()
	single := measureMicro("BenchmarkGatewayRelay/single", func() {
		post(plainClient, plainTS.URL, bodies[0])
	})
	plainTS.Close()
	plain.Close()

	batchedGW, batchedTS := newGateway(8)
	batchedClient := batchedTS.Client()
	batched := measureMicro("BenchmarkGatewayRelay/batched8", func() {
		post8(batchedClient, batchedTS.URL, func(i int) []byte { return bodies[i%len(bodies)] })
	})
	coalesced := measureMicro("BenchmarkGatewayRelay/coalesced", func() {
		post8(batchedClient, batchedTS.URL, func(int) []byte { return bodies[0] })
	})
	batchedTS.Close()
	batchedGW.Close()

	return []benchMicro{single, batched, coalesced}
}

// waitGatewayReady polls the gateway's readyz until its backend probe has
// landed, so the timed windows never include probe warm-up.
func waitGatewayReady(url string) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	panic("gateway bench: gateway never became ready")
}
