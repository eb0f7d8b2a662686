package core_test

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/simulate"
	"repro/wimi"
)

// withValue returns a copy of s whose target (or baseline) capture holds v
// at one packet, antenna and subcarrier. Only the touched matrix is
// cloned, so the other capture keeps its identity for a BaselineCache.
func withValue(s *csi.Session, baseline bool, pkt, ant, sub int, v complex128) *csi.Session {
	out := *s
	c := &out.Target
	if baseline {
		c = &out.Baseline
	}
	c.Packets = append([]csi.Packet(nil), c.Packets...)
	c.Packets[pkt].CSI = c.Packets[pkt].CSI.Clone()
	c.Packets[pkt].CSI.Values[ant][sub] = v
	return &out
}

// pathResult is one identification path's answer: a verdict or an error.
type pathResult struct {
	path string
	det  core.Detail
	err  error
}

// identifyEveryPath runs s through every route to a verdict: the pipeline
// entry point, uncached and through a baseline cache warmed on clean (the
// hub's path), the allocating wrappers and the wimi facade.
func identifyEveryPath(t *testing.T, id *core.Identifier, clean, s *csi.Session, cfg wimi.PipelineConfig) []pathResult {
	t.Helper()
	var out []pathResult
	add := func(path string, det core.Detail, err error) {
		out = append(out, pathResult{path, det, err})
	}
	det, err := id.IdentifyDetailedP(core.NewPipeline(), s, nil)
	add("IdentifyDetailedP", det, err)
	if d, err := id.IdentifyDetailed(s); err != nil {
		add("IdentifyDetailed", core.Detail{}, err)
	} else {
		add("IdentifyDetailed", *d, nil)
	}
	label, err := id.Identify(s)
	add("Identify", core.Detail{Material: label, Confidence: 1}, err)
	nov, err := id.NoveltyScore(s)
	add("NoveltyScore", core.Detail{Omega: nov}, err)

	bc := &core.BaselineCache{}
	if _, err := id.IdentifyDetailedP(core.NewPipeline(), clean, bc); err != nil {
		t.Fatal(err)
	}
	det, err = id.IdentifyDetailedP(core.NewPipeline(), s, bc)
	add("IdentifyDetailedP cached", det, err)

	feats, err := wimi.ExtractFeatures(s, cfg)
	det = core.Detail{Confidence: 1}
	if err == nil {
		det.Omega = feats.Pairs[0].Omega
	}
	add("wimi.ExtractFeatures", det, err)
	return out
}

// checkFinite fails on a verdict carrying a non-finite Ω or a confidence
// outside [0, 1].
func checkFinite(t *testing.T, what string, r pathResult) {
	t.Helper()
	if r.err != nil {
		return
	}
	if math.IsNaN(r.det.Omega) || math.IsInf(r.det.Omega, 0) || !(r.det.Confidence >= 0 && r.det.Confidence <= 1) {
		t.Fatalf("%s: %s answered %+v", what, r.path, r.det)
	}
}

// TestNonFiniteCSINeverGetsAVerdict pins the finite-input contract on
// every core path: a non-finite CSI value at a subcarrier the model uses
// is an error, never a verdict built on it, while the same value at an
// unused subcarrier, a huge finite value and an exact zero still get
// ordinary verdicts.
func TestNonFiniteCSINeverGetsAVerdict(t *testing.T) {
	id, sessions := guardIdentifier(t)
	cfg := core.DefaultConfig()
	good, err := core.CalibrateSubcarriers(sessions, core.AntennaPair{A: 0, B: 1}, cfg.GoodSubcarriers)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ForcedSubcarriers = good // the set TrainIdentifier pinned
	used := map[int]bool{}
	for _, sub := range good {
		used[sub] = true
	}
	unused := csi.NumSubcarriers - 1
	for used[unused] {
		unused--
	}
	clean := sessions[0]
	inf, nan := math.Inf(1), math.NaN()
	nonFinite := map[string]complex128{
		"+Inf":   complex(inf, 0),
		"-Inf·i": complex(0, -inf),
		"NaN":    complex(nan, 0),
	}
	for name, v := range nonFinite {
		for _, sub := range []int{good[0], good[len(good)-1]} {
			for _, baseline := range []bool{false, true} {
				s := withValue(clean, baseline, 3, 0, sub, v)
				for _, r := range identifyEveryPath(t, id, clean, s, cfg) {
					if r.err == nil {
						t.Errorf("%s at used subcarrier %d (baseline %v): %s answered %+v", name, sub, baseline, r.path, r.det)
					}
				}
			}
		}
		s := withValue(clean, false, 3, 0, unused, v)
		for _, r := range identifyEveryPath(t, id, clean, s, cfg) {
			if r.err != nil {
				t.Errorf("%s at unused subcarrier %d: %s failed: %v", name, unused, r.path, r.err)
			}
			checkFinite(t, name+" unused", r)
		}
	}
	// NaN keeps the rejection it always had, word for word.
	_, err = id.IdentifyDetailedP(core.NewPipeline(), withValue(clean, false, 3, 0, good[0], complex(nan, 0)), nil)
	if err == nil || !strings.Contains(err.Error(), "phase difference has no defined mean") {
		t.Errorf("NaN at a used subcarrier: error %v, want the undefined-mean rejection", err)
	}
	for name, v := range map[string]complex128{"1e300": complex(1e300, 0), "zero": 0} {
		s := withValue(clean, false, 3, 0, good[0], v)
		for _, r := range identifyEveryPath(t, id, clean, s, cfg) {
			if r.err != nil {
				t.Errorf("%s at used subcarrier %d: %s failed: %v", name, good[0], r.path, r.err)
			}
			checkFinite(t, name, r)
		}
	}
}

// withShortRow returns a copy of s whose target (or baseline) capture has
// one antenna row of packet pkt cut to n entries.
func withShortRow(s *csi.Session, baseline bool, pkt, ant, n int) *csi.Session {
	out := *s
	c := &out.Target
	if baseline {
		c = &out.Baseline
	}
	c.Packets = append([]csi.Packet(nil), c.Packets...)
	c.Packets[pkt].CSI = c.Packets[pkt].CSI.Clone()
	c.Packets[pkt].CSI.Values[ant] = c.Packets[pkt].CSI.Values[ant][:n]
	return &out
}

// TestShortCSIRowIsAnError pins that a CSI row shorter than
// NumSubcarriers is an error on every core path — the pipeline entry
// point uncached and through a warm baseline cache, the allocating
// wrappers, ExtractFeatures and the wimi facade — where it was an index
// panic inside extraction.
func TestShortCSIRowIsAnError(t *testing.T) {
	s, err := simulate.Session(simulate.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ExtractFeatures(withShortRow(s, false, 3, 0, 10), core.DefaultConfig()); err == nil {
		t.Error("ExtractFeatures accepted a 10-entry target row")
	}

	id, sessions := guardIdentifier(t)
	clean := sessions[0]
	for _, tc := range []struct {
		baseline bool
		n        int
	}{{false, 10}, {false, 0}, {true, 10}, {false, csi.NumSubcarriers - 1}} {
		short := withShortRow(clean, tc.baseline, 3, 0, tc.n)
		if _, err := core.ExtractFeatures(short, core.DefaultConfig()); err == nil {
			t.Errorf("ExtractFeatures accepted a %d-entry row (baseline %v)", tc.n, tc.baseline)
		}
		for _, r := range identifyEveryPath(t, id, clean, short, core.DefaultConfig()) {
			if r.err == nil {
				t.Errorf("%d-entry row (baseline %v): %s answered %+v", tc.n, tc.baseline, r.path, r.det)
			}
		}
	}
}

// fuzzRecordLen is the size of one FuzzIdentifyPipeline edit: an address
// byte (bit 0 picks the baseline, bit 1 the imaginary part), packet,
// antenna and subcarrier bytes (each reduced modulo its range), then the
// little-endian bits of the float64 written there.
const fuzzRecordLen = 12

// FuzzIdentifyPipeline writes arbitrary float64 bit patterns (NaN, ±Inf,
// subnormals, zeros, ±1e308, ...) into the CSI of a session and runs it
// uncached and through a baseline cache, cold and then warm, against a
// model trained once. Every input must end in an error or in a finite Ω
// with a confidence in [0, 1], and every path must answer bit-identically.
func FuzzIdentifyPipeline(f *testing.F) {
	id, sessions := guardIdentifier(f)
	base := sessions[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		s := *base
		for _, c := range []*csi.Capture{&s.Baseline, &s.Target} {
			c.Packets = append([]csi.Packet(nil), c.Packets...)
			for i := range c.Packets {
				c.Packets[i].CSI = c.Packets[i].CSI.Clone()
			}
		}
		for ; len(data) >= fuzzRecordLen; data = data[fuzzRecordLen:] {
			c := &s.Target
			if data[0]&1 != 0 {
				c = &s.Baseline
			}
			m := c.Packets[int(data[1])%c.Len()].CSI
			row := m.Values[int(data[2])%m.NumAntennas()]
			sub := int(data[3]) % csi.NumSubcarriers
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[4:]))
			if data[0]&2 != 0 {
				row[sub] = complex(real(row[sub]), x)
			} else {
				row[sub] = complex(x, imag(row[sub]))
			}
		}
		seq, seqErr := id.IdentifyDetailedP(core.NewPipeline(), &s, nil)
		checkFinite(t, "uncached", pathResult{"IdentifyDetailedP", seq, seqErr})
		var bc core.BaselineCache
		pl := core.NewPipeline()
		for _, pass := range []string{"cold", "warm"} {
			det, err := id.IdentifyDetailedP(pl, &s, &bc)
			if (seqErr == nil) != (err == nil) || (seqErr != nil && seqErr.Error() != err.Error()) {
				t.Fatalf("uncached error %v, %s cache error %v", seqErr, pass, err)
			}
			if seqErr == nil && (det.Material != seq.Material || math.Float64bits(det.Omega) != math.Float64bits(seq.Omega) ||
				math.Float64bits(det.Confidence) != math.Float64bits(seq.Confidence)) {
				t.Fatalf("%s cache %+v != uncached %+v", pass, det, seq)
			}
		}
	})
}
