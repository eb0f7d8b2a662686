package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/wimi"
)

// serveMicroBenchmarks measures the online serving path end to end — HTTP
// round-trip, trace decode, pipeline, classification — so benchdiff gates
// serving latency alongside the component benches. Entries:
//
//	BenchmarkServeIdentify/single        one sequential request per op
//	BenchmarkServeIdentify/batched8-cold eight concurrent posts of one
//	                                     capture per op: every request pays
//	                                     decode, DSP and classification,
//	                                     one pipeline per request
func serveMicroBenchmarks() []benchMicro {
	dir, err := os.MkdirTemp("", "wimi-servebench")
	if err != nil {
		panic(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	modelPath := filepath.Join(dir, "model.json")
	session := trainServeModel(modelPath)
	body := encodeIdentifyRequest(session)
	reg, err := registry.Open(modelPath)
	if err != nil {
		panic(err)
	}
	cold, err := serve.New(serve.Config{Registry: reg, QueueDepth: 256})
	if err != nil {
		panic(err)
	}
	defer cold.Shutdown()
	coldTS := httptest.NewServer(cold.Handler())
	defer coldTS.Close()
	post := func(client *http.Client, url string) {
		resp, err := client.Post(url+"/v1/identify", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		if resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("serve bench: status %d", resp.StatusCode))
		}
		_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
		_ = resp.Body.Close()
	}
	post8 := func(client *http.Client, url string) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				post(client, url)
			}()
		}
		wg.Wait()
	}

	// The inference floor under the HTTP numbers: one warmed pipeline
	// running session → Ω verdict with zero steady-state allocation.
	id := registryActive(modelPath)
	pl := core.NewPipeline()
	if _, err := id.IdentifyDetailedP(pl, session, nil); err != nil {
		panic(err)
	}
	pooled := measureMicro("core-identify-pooled", func() {
		if _, err := id.IdentifyDetailedP(pl, session, nil); err != nil {
			panic(err)
		}
	})
	// The same layer on 20- and 100-packet sessions, rotating over 8
	// distinct ones so the branch predictor cannot learn a single
	// repeated input the way it learns core-identify-pooled's.
	var pipeline []benchMicro
	for _, packets := range []int{20, 100} {
		sessions := make([]*wimi.Session, 8)
		for i := range sessions {
			sc := wimi.DefaultScenario()
			sc.Liquid = wimi.MustLiquid([]string{wimi.PureWater, wimi.Honey, wimi.Oil}[i%3])
			sc.Packets = packets
			if sessions[i], err = wimi.Simulate(sc, int64(700_001+i*7919)); err != nil {
				panic(err)
			}
		}
		next := 0
		pipeline = append(pipeline, measureMicro(fmt.Sprintf("pipeline-identify-%d", packets), func() {
			if _, err := id.IdentifyDetailedP(pl, sessions[next], nil); err != nil {
				panic(err)
			}
			next = (next + 1) % len(sessions)
		}))
	}

	coldClient := coldTS.Client()
	single := measureMicro("BenchmarkServeIdentify/single", func() {
		post(coldClient, coldTS.URL)
	})
	batchedCold := measureMicro("BenchmarkServeIdentify/batched8-cold", func() {
		post8(coldClient, coldTS.URL)
	})
	return append([]benchMicro{pooled, single, batchedCold}, pipeline...)
}

// registryActive opens the model fresh and returns its identifier, so the
// pooled-pipeline micro measures the same model the servers load.
func registryActive(modelPath string) *core.Identifier {
	reg, err := registry.Open(modelPath)
	if err != nil {
		panic(err)
	}
	return reg.Active().Identifier
}

// trainServeModel trains a small three-liquid identifier, persists it to
// path, and returns one training session for request bodies.
func trainServeModel(path string) *wimi.Session {
	var sessions []*wimi.Session
	var labels []string
	for li, name := range []string{wimi.PureWater, wimi.Honey, wimi.Oil} {
		m, err := wimi.Liquid(name)
		if err != nil {
			panic(err)
		}
		sc := wimi.DefaultScenario()
		sc.Liquid = &m
		set, err := wimi.SimulateTrials(sc, 4, int64(li)*1_000_003+1)
		if err != nil {
			panic(err)
		}
		for _, s := range set {
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	id, err := wimi.Train(sessions, labels, wimi.DefaultTrainingConfig())
	if err != nil {
		panic(err)
	}
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := wimi.SaveIdentifier(id, f); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	return sessions[0]
}

// encodeIdentifyRequest renders a session as the /v1/identify wire format.
func encodeIdentifyRequest(s *wimi.Session) []byte {
	encode := func(c *wimi.Capture) []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, c.NumAntennas(), s.Carrier)
		if err != nil {
			panic(err)
		}
		if err := w.WriteCapture(c); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	body, err := json.Marshal(map[string][]byte{
		"baseline": encode(&s.Baseline),
		"target":   encode(&s.Target),
	})
	if err != nil {
		panic(err)
	}
	return body
}
