package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/dwt"
	"repro/internal/material"
	"repro/internal/mathx"
	"repro/internal/simulate"
)

// perCallExtract is feature extraction written per call: each
// (pair, subcarrier) walks each capture once for its phase resultant and
// each antenna once for its amplitude series, through the public
// per-series functions and DenoiseAmplitudeSeries. Staged extraction must
// match it bit for bit, errors included.
func perCallExtract(s *csi.Session, cfg Config) (*Features, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	numAnt := s.Baseline.NumAntennas()
	pairs := cfg.Pairs
	if len(pairs) == 0 {
		pairs = AllPairs(numAnt)
	}
	for _, p := range pairs {
		if p.A >= numAnt || p.B >= numAnt {
			return nil, fmt.Errorf("core: pair %v exceeds %d antennas", p, numAnt)
		}
	}
	good := cfg.ForcedSubcarriers
	if len(good) > 0 {
		for _, sub := range good {
			if sub < 0 || sub >= csi.NumSubcarriers {
				return nil, fmt.Errorf("core: forced subcarrier %d out of range", sub)
			}
		}
	} else {
		var err error
		if good, err = SelectGoodSubcarriersSession(s, pairs[0], cfg.GoodSubcarriers); err != nil {
			return nil, err
		}
	}
	meanPhase := func(c *csi.Capture, pair AntennaPair, sub int) (float64, error) {
		x, y, err := c.PhaseDiffResultant(pair.A, pair.B, sub)
		if err != nil {
			return 0, err
		}
		m := math.Atan2(y, x)
		if math.Hypot(x, y) < 1e-12 || m != m {
			return 0, fmt.Errorf("core: phase difference has no defined mean at subcarrier %d", sub)
		}
		return m, nil
	}
	ampRatio := func(c *csi.Capture, pair AntennaPair, sub int) (float64, error) {
		var den [2][]float64
		for k, ant := range []int{pair.A, pair.B} {
			series, err := c.AmplitudeSeries(ant, sub)
			if err != nil {
				return 0, fmt.Errorf("core: antenna %d: %w", ant, err)
			}
			if den[k], err = DenoiseAmplitudeSeries(series, cfg); err != nil {
				return 0, err
			}
		}
		var ratios []float64
		for i := range den[0] {
			if den[1][i] > 0 {
				ratios = append(ratios, den[0][i]/den[1][i])
			}
		}
		if len(ratios) == 0 {
			return 0, fmt.Errorf("core: no usable amplitude samples at subcarrier %d", sub)
		}
		if !cfg.DenoiseAmplitude {
			return mathx.Mean(ratios), nil
		}
		return mathx.Median(ratios), nil
	}
	out := &Features{GoodSubcarriers: append([]int(nil), good...)}
	for _, pair := range pairs {
		pf := PairFeature{Pair: pair}
		var thetas, psis []float64
		err := func() error {
			for _, sub := range good {
				tgt, err := meanPhase(&s.Target, pair, sub)
				if err != nil {
					return err
				}
				base, err := meanPhase(&s.Baseline, pair, sub)
				if err != nil {
					return err
				}
				theta := mathx.AngleDiff(tgt, base)
				rTgt, err := ampRatio(&s.Target, pair, sub)
				if err != nil {
					return err
				}
				rBase, err := ampRatio(&s.Baseline, pair, sub)
				if err != nil {
					return err
				}
				if rBase == 0 {
					return fmt.Errorf("core: zero baseline amplitude ratio at subcarrier %d", sub)
				}
				psi := rTgt / rBase
				if psi <= 0 {
					return fmt.Errorf("core: non-positive ΔΨ %v at subcarrier %d", psi, sub)
				}
				thetas = append(thetas, theta)
				psis = append(psis, psi)
				pf.PerSubcarrierOmega = append(pf.PerSubcarrierOmega, omegaFrom(theta, psi, cfg))
			}
			return nil
		}()
		if err != nil {
			return nil, fmt.Errorf("core: pair %v: %w", pair, err)
		}
		pf.DeltaTheta = mathx.CircularMean(thetas)
		if math.IsNaN(pf.DeltaTheta) {
			pf.DeltaTheta = 0
		}
		pf.DeltaPsi = mathx.Mean(psis)
		pf.Gamma = estimateGamma(pf.DeltaTheta, pf.DeltaPsi, cfg)
		pf.Omega = omegaFrom(pf.DeltaTheta, pf.DeltaPsi, cfg)
		out.Pairs = append(out.Pairs, pf)
		if cfg.OmegaOnlyFeatures {
			out.Vector = append(out.Vector, pf.Omega)
			continue
		}
		num := -math.Log(pf.DeltaPsi)
		den := pf.DeltaTheta + 2*math.Pi*float64(pf.Gamma)
		out.Vector = append(out.Vector, pf.Omega, math.Atan2(num, den), den, num)
	}
	for i, v := range out.Vector {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite feature component %d (%v)", i, v)
		}
	}
	return out, nil
}

// sameBits reports where two float slices differ in any bit, or "".
func sameBits(what string, a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d values vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
	return ""
}

// checkSameExtraction fails unless got and want (with their errors) match
// bit for bit.
func checkSameExtraction(t *testing.T, name string, got *Features, gotErr error, want *Features, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, per-call extraction's %v", name, gotErr, wantErr)
		}
		return
	}
	if fmt.Sprint(got.GoodSubcarriers) != fmt.Sprint(want.GoodSubcarriers) || len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: subcarriers %v / %d pairs, per-call %v / %d pairs",
			name, got.GoodSubcarriers, len(got.Pairs), want.GoodSubcarriers, len(want.Pairs))
	}
	for i, g := range got.Pairs {
		w := want.Pairs[i]
		if d := sameBits("pair scalars", []float64{g.DeltaTheta, g.DeltaPsi, float64(g.Gamma), g.Omega},
			[]float64{w.DeltaTheta, w.DeltaPsi, float64(w.Gamma), w.Omega}); d != "" || g.Pair != w.Pair {
			t.Fatalf("%s: pair %v vs %v: %s", name, g.Pair, w.Pair, d)
		}
		if d := sameBits("per-subcarrier Ω", g.PerSubcarrierOmega, w.PerSubcarrierOmega); d != "" {
			t.Fatalf("%s: pair %v: %s", name, g.Pair, d)
		}
	}
	if d := sameBits("vector", got.Vector, want.Vector); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

// cloneCapture deep-copies a capture's packets and matrices.
func cloneCapture(c csi.Capture) csi.Capture {
	out := csi.Capture{Packets: append([]csi.Packet(nil), c.Packets...)}
	for i := range out.Packets {
		out.Packets[i].CSI = out.Packets[i].CSI.Clone()
	}
	return out
}

// poisonStages fills both staged captures of pl with NaN and marks every
// pair short, so a result that read a stage this extraction did not
// rewrite cannot pass for a correct one.
func poisonStages(pl *Pipeline) {
	for _, st := range []*captureStage{&pl.tgt, &pl.base} {
		for _, buf := range [][]float64{st.amp, st.rx, st.ry} {
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
		for p := range st.short {
			st.short[p] = true
		}
	}
}

// TestStagedExtractionMatchesPerCall pins staged extraction to the
// per-call one, bit for bit, over session lengths 5 to 257, four
// wavelets, denoising on and off, forced and selected subcarriers, with no
// cache, a cold one and one warmed by other targets against the same
// baseline, on clean sessions and on sessions holding a zero, an impulse,
// a NaN, an infinity or a 1e±300 value.
func TestStagedExtractionMatchesPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := material.PaperDatabase()
	liquids := db.Names()
	type corruption struct {
		name string
		set  func(v complex128) complex128
	}
	corruptions := []corruption{
		{"clean", nil},
		{"zero", func(complex128) complex128 { return 0 }},
		{"impulse", func(v complex128) complex128 { return 40 * v }},
		{"NaN", func(v complex128) complex128 { return complex(math.NaN(), imag(v)) }},
		{"Inf", func(v complex128) complex128 { return complex(real(v), math.Inf(-1)) }},
		{"1e300", func(v complex128) complex128 { return 1e300 * v }},
		{"1e-300", func(v complex128) complex128 { return 1e-300 * v }},
	}
	wavelets := []*dwt.Wavelet{dwt.DB2, dwt.DB4, dwt.Haar, dwt.Sym4}
	forced := []int{2, 5, 11, 17, 23, 28}
	pl := NewPipeline()
	cases, failures := 0, 0
	for li, packets := range []int{5, 6, 9, 20, 33, 100, 257} {
		m, err := db.Get(liquids[li%len(liquids)])
		if err != nil {
			t.Fatal(err)
		}
		sc := simulate.Default()
		sc.Liquid = &m
		sc.Packets = packets
		base, err := simulate.Session(sc, int64(100+li))
		if err != nil {
			t.Fatal(err)
		}
		for ci, corr := range corruptions {
			wavelet := wavelets[(li+ci)%len(wavelets)]
			// Targets share the session's baseline capture (so a cache
			// keyed on it stays warm across them) and each get their own
			// corruption.
			bc := &BaselineCache{}
			baseline := base.Baseline
			if corr.set != nil && ci%2 == 0 {
				baseline = cloneCapture(base.Baseline)
				pkt := baseline.Packets[rng.Intn(packets)].CSI
				ant, sub := rng.Intn(3), forced[rng.Intn(len(forced))]
				pkt.Values[ant][sub] = corr.set(pkt.Values[ant][sub])
			}
			for k := 0; k < 3; k++ {
				target, err := simulate.Session(sc, int64(1000*li+10*ci+k))
				if err != nil {
					t.Fatal(err)
				}
				s := &csi.Session{Carrier: base.Carrier, Baseline: baseline, Target: cloneCapture(target.Target)}
				if corr.set != nil && (ci%2 == 1 || k > 0) {
					pkt := s.Target.Packets[rng.Intn(packets)].CSI
					ant, sub := rng.Intn(3), forced[rng.Intn(len(forced))]
					pkt.Values[ant][sub] = corr.set(pkt.Values[ant][sub])
				}
				for _, denoise := range []bool{true, false} {
					for _, force := range []bool{true, false} {
						cfg := DefaultConfig()
						cfg.Wavelet = wavelet
						cfg.DenoiseAmplitude = denoise
						if force {
							cfg.ForcedSubcarriers = forced
						}
						name := fmt.Sprintf("%d packets, %s, %s, denoise=%v, forced=%v, target %d",
							packets, corr.name, wavelet.Name(), denoise, force, k)
						want, wantErr := perCallExtract(s, cfg)
						poisonStages(pl)
						got, gotErr := pl.extractFeatures(s, cfg, nil)
						checkSameExtraction(t, name+", no cache", got, gotErr, want, wantErr)
						// The cache persists across targets, wavelets and
						// modes: its key resets it where that must happen.
						poisonStages(pl)
						got, gotErr = pl.extractFeatures(s, cfg, bc)
						checkSameExtraction(t, name+", shared cache", got, gotErr, want, wantErr)
						poisonStages(pl)
						got, gotErr = pl.extractFeatures(s, cfg, bc)
						checkSameExtraction(t, name+", warm cache", got, gotErr, want, wantErr)
						cases++
						if wantErr != nil {
							failures++
						}
					}
				}
			}
		}
	}
	if failures == 0 || failures > cases/2 {
		t.Fatalf("%d of %d extractions fail: the corpus should mostly succeed, and fail sometimes", failures, cases)
	}
	t.Logf("%d sessions × configurations, %d of them rejected", cases, failures)
}

// shortPacket replaces packet i of c with a copy holding only its first
// rows antenna rows.
func shortPacket(t *testing.T, c *csi.Capture, i, rows int) {
	t.Helper()
	m, err := csi.NewMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	for a := range m.Values {
		copy(m.Values[a], c.Packets[i].CSI.Values[a])
	}
	c.Packets[i].CSI = m
}

// TestStagedExtractionShortPacketError pins the error of a session with a
// packet that lacks antenna rows, in the target or in the baseline (cold
// cache, then the same cache again): the per-call extraction's text, and
// no panic.
func TestStagedExtractionShortPacketError(t *testing.T) {
	sc := simulate.Default()
	m, err := material.PaperDatabase().Get(material.Milk)
	if err != nil {
		t.Fatal(err)
	}
	sc.Liquid = &m
	sc.Packets = 20
	for _, tc := range []struct {
		name     string
		baseline bool
		rows     int
		forced   bool
		want     string
	}{
		{"target, 2 rows", false, 2, false, "core: pair 1&3: csi: packet 5: csi: antenna 2 out of range [0,2)"},
		{"target, 2 rows, forced", false, 2, true, "core: pair 1&3: csi: packet 5: csi: antenna 2 out of range [0,2)"},
		{"baseline, 2 rows", true, 2, false, "core: pair 1&3: csi: packet 5: csi: antenna 2 out of range [0,2)"},
		{"baseline, 2 rows, forced", true, 2, true, "core: pair 1&3: csi: packet 5: csi: antenna 2 out of range [0,2)"},
		{"target, 1 row", false, 1, false, ""},
		{"target, 1 row, forced", false, 1, true, "core: pair 1&2: csi: packet 5: csi: antenna 1 out of range [0,1)"},
		{"baseline, 1 row, forced", true, 1, true, "core: pair 1&2: csi: packet 5: csi: antenna 1 out of range [0,1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := simulate.Session(sc, 31)
			if err != nil {
				t.Fatal(err)
			}
			c := &s.Target
			if tc.baseline {
				c = &s.Baseline
			}
			shortPacket(t, c, 5, tc.rows)
			cfg := DefaultConfig()
			if tc.forced {
				cfg.ForcedSubcarriers = []int{3, 9, 14, 20}
			}
			_, wantErr := perCallExtract(s, cfg)
			if wantErr == nil {
				t.Fatal("the per-call extraction accepts the short packet")
			}
			if tc.want != "" && wantErr.Error() != tc.want {
				t.Fatalf("per-call error %q, want %q", wantErr, tc.want)
			}
			pl, bc := NewPipeline(), &BaselineCache{}
			for _, cache := range []*BaselineCache{nil, bc, bc} {
				_, err := pl.extractFeatures(s, cfg, cache)
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("cache %v: error %v, want %q", cache != nil, err, wantErr)
				}
				if !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("error %q does not name the missing antenna", err)
				}
			}
		})
	}
}
