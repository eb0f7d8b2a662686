package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/wimi"
)

// fixtureLiquids are the materials the fixture model is trained on; every
// generated request simulates one of them, so a correct system identifies
// every input as what it is.
var fixtureLiquids = []string{wimi.PureWater, wimi.Honey, wimi.Oil}

// fixture is the trained model every workload serves, as the system under
// test loads it.
type fixture struct {
	id       *wimi.Identifier
	pipeline wimi.PipelineConfig // the served feature-extraction configuration
	path     string
	version  string // registry.SourceDigest of path: the modelVersion answers carry
}

// writeFixture trains the fixture model through the wimi facade from fixed
// training seeds (never the run's -seed, so every run serves an equally
// trained model), saves it at path and loads it back: the oracle judges with
// exactly the bytes the servers load.
func writeFixture(path string) (*fixture, error) {
	var sessions []*wimi.Session
	var labels []string
	for li, name := range fixtureLiquids {
		sc := wimi.DefaultScenario()
		sc.Liquid = wimi.MustLiquid(name)
		set, err := wimi.SimulateTrials(sc, 4, int64(li)*1_000_003+1)
		if err != nil {
			return nil, fmt.Errorf("simulating %s training sessions: %w", name, err)
		}
		for _, s := range set {
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	cfg := wimi.DefaultTrainingConfig()
	// Pin the subcarrier calibration Train would otherwise derive itself, so
	// the traced run can replay feature extraction with the very
	// configuration the model serves.
	pairs := cfg.Pipeline.Pairs
	if len(pairs) == 0 {
		pairs = core.AllPairs(sessions[0].Baseline.NumAntennas())
	}
	good, err := core.CalibrateSubcarriers(sessions, pairs[0], cfg.Pipeline.GoodSubcarriers)
	if err != nil {
		return nil, fmt.Errorf("calibrating subcarriers: %w", err)
	}
	cfg.Pipeline.ForcedSubcarriers = good
	trained, err := wimi.Train(sessions, labels, cfg)
	if err != nil {
		return nil, fmt.Errorf("training the fixture model: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := wimi.SaveIdentifier(trained, &buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("writing the fixture model: %w", err)
	}
	version, err := registry.SourceDigest(path)
	if err != nil {
		return nil, err
	}
	id, err := wimi.LoadIdentifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("loading the fixture model back: %w", err)
	}
	return &fixture{id: id, pipeline: cfg.Pipeline, path: path, version: version}, nil
}

// verdict is the oracle's answer for one request: the material and the exact
// bits of Ω̄ a correct server returns. The confidence only feeds the replayed
// response encoding.
type verdict struct {
	material   string
	omega      uint64
	confidence float64
}

// makeBodies simulates n sessions of the given capture length, cycling the
// fixture liquids, and encodes each as a POST /v1/identify body. Session i's
// simulation seed derives from (seed, salt, i), so workloads sharing a salt
// send identical bodies.
func makeBodies(seed int64, salt string, n, packets int) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		sc := wimi.DefaultScenario()
		sc.Liquid = wimi.MustLiquid(fixtureLiquids[i%len(fixtureLiquids)])
		sc.Packets = packets
		s, err := wimi.Simulate(sc, subSeed(seed, salt, i))
		if err != nil {
			return nil, fmt.Errorf("simulating session %d: %w", i, err)
		}
		if bodies[i], err = encodeRequest(s); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// encodeRequest renders a session in the /v1/identify wire format: both
// captures as .csitrace streams, base64 inside JSON.
func encodeRequest(s *wimi.Session) ([]byte, error) {
	enc := func(c *wimi.Capture) ([]byte, error) {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, c.NumAntennas(), s.Carrier)
		if err != nil {
			return nil, err
		}
		if err := w.WriteCapture(c); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	baseline, err := enc(&s.Baseline)
	if err != nil {
		return nil, err
	}
	target, err := enc(&s.Target)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.IdentifyRequest{Baseline: baseline, Target: target})
}

// decodeSession parses both captures of a request the way the server does.
func decodeSession(req *serve.IdentifyRequest) (*wimi.Session, error) {
	baseline, carrier, err := decodeCapture(req.Baseline)
	if err != nil {
		return nil, fmt.Errorf("baseline trace: %w", err)
	}
	target, _, err := decodeCapture(req.Target)
	if err != nil {
		return nil, fmt.Errorf("target trace: %w", err)
	}
	return &wimi.Session{Carrier: carrier, Baseline: *baseline, Target: *target}, nil
}

func decodeCapture(data []byte) (*wimi.Capture, float64, error) {
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	c, err := r.ReadAll()
	if err != nil {
		return nil, 0, err
	}
	return c, r.Header().Carrier, nil
}

// oracleVerdicts identifies every body in process with the facade's
// IdentifyDetailed, after decoding it exactly as the server would.
func oracleVerdicts(fx *fixture, bodies [][]byte) ([]verdict, error) {
	out := make([]verdict, len(bodies))
	for i, body := range bodies {
		var req serve.IdentifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		s, err := decodeSession(&req)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		det, err := fx.id.IdentifyDetailed(s)
		if err != nil {
			return nil, fmt.Errorf("oracle on body %d: %w", i, err)
		}
		out[i] = verdict{material: det.Material, omega: math.Float64bits(det.Omega), confidence: det.Confidence}
	}
	return out, nil
}
