package core_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/hardware"
	"repro/internal/material"
	"repro/internal/mathx"
	"repro/internal/propagation"
	"repro/internal/simulate"
)

// cleanScenario returns a low-noise scenario where the pipeline's estimate
// should track ground truth closely.
func cleanScenario(t *testing.T, liquidName string) simulate.Scenario {
	t.Helper()
	sc := simulate.Default()
	sc.Env = propagation.Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
	sc.Hardware = hardware.Profile{
		PhaseNoiseSigma: 1e-5, SFOSlopeSigma: 0.35, CommonGainSigmaDB: 1e-6,
		SNRdB: 70, ImpulseProb: 0, OutlierProb: 0,
	}
	sc.PlacementJitter = 1e-9
	if liquidName != "" {
		m, err := material.PaperDatabase().Get(liquidName)
		if err != nil {
			t.Fatal(err)
		}
		sc.Liquid = &m
	}
	return sc
}

func TestExtractFeaturesRecoversOmegaCleanLimit(t *testing.T) {
	// In the anechoic, low-noise limit the measured Ω̄ must match the
	// material's ground-truth Ω for every antenna pair — the end-to-end
	// correctness check of Eqs. 14-21.
	for _, name := range []string{material.PureWater, material.Milk, material.Honey, material.Liquor} {
		sc := cleanScenario(t, name)
		session, err := simulate.Session(sc, 11)
		if err != nil {
			t.Fatal(err)
		}
		feats, err := core.ExtractFeatures(session, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		truth := sc.Liquid.Omega(sc.Carrier)
		for _, pf := range feats.Pairs {
			if math.Abs(pf.Omega-truth) > 0.02 {
				t.Errorf("%s pair %v: Ω̂ = %v, truth %v", name, pf.Pair, pf.Omega, truth)
			}
			if pf.Gamma != 0 {
				t.Errorf("%s pair %v: γ = %d, want 0 at this geometry", name, pf.Pair, pf.Gamma)
			}
		}
	}
}

func TestExtractFeaturesSizeIndependence(t *testing.T) {
	// The headline property (Sec. III-E): Ω̄ must not change when only the
	// container size changes.
	var omegas []float64
	for _, diam := range []float64{0.143, 0.11, 0.089} {
		sc := cleanScenario(t, material.PureWater)
		sc.Diameter = diam
		session, err := simulate.Session(sc, 13)
		if err != nil {
			t.Fatal(err)
		}
		feats, err := core.ExtractFeatures(session, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		omegas = append(omegas, feats.Pairs[0].Omega)
	}
	for i := 1; i < len(omegas); i++ {
		if math.Abs(omegas[i]-omegas[0]) > 0.03 {
			t.Errorf("Ω̄ varies with container size: %v", omegas)
		}
	}
}

func TestExtractFeaturesPathScaleInvariance(t *testing.T) {
	// Ω is a ratio of attenuation to phase change; the effective path scale
	// must cancel (the property that justifies the PathScale substitution).
	var omegas []float64
	for _, scale := range []float64{0.03, 0.05, 0.08} {
		sc := cleanScenario(t, material.Milk)
		sc.PathScale = scale
		session, err := simulate.Session(sc, 17)
		if err != nil {
			t.Fatal(err)
		}
		feats, err := core.ExtractFeatures(session, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		omegas = append(omegas, feats.Pairs[0].Omega)
	}
	for i := 1; i < len(omegas); i++ {
		if math.Abs(omegas[i]-omegas[0]) > 0.02 {
			t.Errorf("Ω̄ varies with path scale: %v", omegas)
		}
	}
}

func TestExtractFeaturesDistinguishesMaterialsCleanly(t *testing.T) {
	measure := func(name string) float64 {
		sc := cleanScenario(t, name)
		session, err := simulate.Session(sc, 19)
		if err != nil {
			t.Fatal(err)
		}
		feats, err := core.ExtractFeatures(session, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return feats.Pairs[0].Omega
	}
	water := measure(material.PureWater)
	oil := measure(material.Oil)
	honey := measure(material.Honey)
	if !(oil > water && water > honey) {
		t.Errorf("Ω ordering broken: oil %v, water %v, honey %v", oil, water, honey)
	}
}

func TestExtractFeaturesVectorShape(t *testing.T) {
	sc := cleanScenario(t, material.PureWater)
	session, err := simulate.Session(sc, 23)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := core.ExtractFeatures(session, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 antennas → 3 pairs × 4 components.
	if len(feats.Pairs) != 3 {
		t.Errorf("pairs = %d, want 3", len(feats.Pairs))
	}
	if len(feats.Vector) != 12 {
		t.Errorf("vector dims = %d, want 12", len(feats.Vector))
	}
	if len(feats.GoodSubcarriers) != core.DefaultConfig().GoodSubcarriers {
		t.Errorf("good subcarriers = %d", len(feats.GoodSubcarriers))
	}
	for i, v := range feats.Vector {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("vector[%d] = %v", i, v)
		}
	}
}

func TestExtractFeaturesForcedSubcarriers(t *testing.T) {
	sc := cleanScenario(t, material.PureWater)
	session, err := simulate.Session(sc, 29)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ForcedSubcarriers = []int{5, 20, 23, 24} // the paper's Fig. 6 picks
	feats, err := core.ExtractFeatures(session, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats.GoodSubcarriers) != 4 {
		t.Fatalf("good = %v", feats.GoodSubcarriers)
	}
	for i, want := range []int{5, 20, 23, 24} {
		if feats.GoodSubcarriers[i] != want {
			t.Errorf("forced subcarrier %d = %d, want %d", i, feats.GoodSubcarriers[i], want)
		}
	}
	cfg.ForcedSubcarriers = []int{99}
	if _, err := core.ExtractFeatures(session, cfg); err == nil {
		t.Error("out-of-range forced subcarrier should error")
	}
}

func TestExtractFeaturesInvalidSession(t *testing.T) {
	if _, err := core.ExtractFeatures(&csi.Session{}, core.DefaultConfig()); err == nil {
		t.Error("empty session should error")
	}
}

func TestExtractFeaturesBadPair(t *testing.T) {
	sc := cleanScenario(t, material.PureWater)
	session, err := simulate.Session(sc, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Pairs = []core.AntennaPair{{A: 0, B: 7}}
	if _, err := core.ExtractFeatures(session, cfg); err == nil {
		t.Error("pair beyond antenna count should error")
	}
}

func TestCalibrationCascade(t *testing.T) {
	// Fig. 2/12: raw spread wide, phase-difference spread ~18°, good
	// subcarriers a few degrees — the ordering must hold with realistic
	// hardware in the lab room.
	sc := simulate.Default()
	sc.Packets = 100
	session, err := simulate.Session(sc, 37)
	if err != nil {
		t.Fatal(err)
	}
	// Reference the cascade against a typical subcarrier: the one with the
	// median phase-difference variance (a fixed index could accidentally be
	// the room's cleanest subcarrier and invert the comparison).
	variances, err := core.SubcarrierVariances(&session.Baseline, core.AntennaPair{A: 0, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := mathx.ArgSort(variances)[csi.NumSubcarriers/2]
	rep, err := core.Calibrate(&session.Baseline, core.AntennaPair{A: 0, B: 1}, ref, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RawSpreadDeg < 180 {
		t.Errorf("raw spread %v°, want wide", rep.RawSpreadDeg)
	}
	if rep.DiffSpreadDeg >= rep.RawSpreadDeg {
		t.Errorf("phase difference spread %v° not below raw %v°", rep.DiffSpreadDeg, rep.RawSpreadDeg)
	}
	if rep.GoodSpreadDeg > rep.DiffSpreadDeg {
		t.Errorf("good-subcarrier spread %v° not below difference %v°", rep.GoodSpreadDeg, rep.DiffSpreadDeg)
	}
	if len(rep.GoodSubcarriers) != 4 {
		t.Errorf("good subcarriers = %v", rep.GoodSubcarriers)
	}
}

func TestCalibrateValidation(t *testing.T) {
	sc := cleanScenario(t, "")
	session, err := simulate.Session(sc, 41)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Calibrate(&session.Baseline, core.AntennaPair{0, 1}, -1, 4); err == nil {
		t.Error("bad reference subcarrier should error")
	}
}

func TestRankPairsOrdersByStability(t *testing.T) {
	sc := simulate.Default()
	sc.Packets = 60
	session, err := simulate.Session(sc, 43)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := core.RankPairs(&session.Baseline, []int{5, 10, 15, 20}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %v", stats)
	}
	for _, s := range stats {
		if s.PhaseVariance < 0 || s.RatioVariance < 0 {
			t.Errorf("negative variance in %+v", s)
		}
	}
	if _, err := core.RankPairs(&session.Baseline, nil, core.DefaultConfig()); err == nil {
		t.Error("no subcarriers should error")
	}
}

func TestSelectGoodSubcarriersSessionDeterministic(t *testing.T) {
	sc := simulate.Default()
	sc.Packets = 50
	pick := func() []int {
		session, err := simulate.Session(sc, 100)
		if err != nil {
			t.Fatal(err)
		}
		good, err := core.SelectGoodSubcarriersSession(session, core.AntennaPair{0, 1}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return good
	}
	a, b := pick(), pick()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection not deterministic: %v vs %v", a, b)
		}
	}
}

func TestSelectGoodSubcarriersCalibrationConsistency(t *testing.T) {
	// The experiment harness calibrates the subcarrier set once per room
	// from a long capture; repeating that calibration with fresh trial
	// randomness must keep the selection mostly stable. The library (the
	// highest-multipath room, where variance ranking has the most signal)
	// is the environment this matters for.
	// Exact top-P sets can differ between calibrations (many subcarriers
	// have near-tied variance), but the broad good/bad split must agree: a
	// fresh calibration's picks should rank in the better half of the first
	// calibration's ordering.
	sc := simulate.Default()
	sc.Env = propagation.EnvLibrary
	sc.Packets = 400
	variance := func(seed int64) []float64 {
		session, err := simulate.Session(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := core.SubcarrierVariances(&session.Baseline, core.AntennaPair{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		vt, err := core.SubcarrierVariances(&session.Target, core.AntennaPair{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(vb))
		for i := range out {
			out[i] = vb[i] + vt[i]
		}
		return out
	}
	vFirst := variance(500)
	rank := make(map[int]int, csi.NumSubcarriers)
	for pos, sub := range mathx.ArgSort(vFirst) {
		rank[sub] = pos
	}
	session, err := simulate.Session(sc, 501)
	if err != nil {
		t.Fatal(err)
	}
	good, err := core.SelectGoodSubcarriersSession(session, core.AntennaPair{0, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	inBetterHalf := 0
	for _, sub := range good {
		if rank[sub] < csi.NumSubcarriers/2 {
			inBetterHalf++
		}
	}
	if inBetterHalf < 5 {
		t.Errorf("only %d/8 fresh picks in the first calibration's better half (good=%v)", inBetterHalf, good)
	}
}

func TestGoodSubcarriersBeatExcludedOnVariance(t *testing.T) {
	// Selection wiring: the chosen subcarriers must have a lower mean
	// combined variance than the excluded ones.
	sc := simulate.Default()
	sc.Env = propagation.EnvLibrary
	sc.Packets = 100
	session, err := simulate.Session(sc, 900)
	if err != nil {
		t.Fatal(err)
	}
	pair := core.AntennaPair{A: 0, B: 1}
	good, err := core.SelectGoodSubcarriersSession(session, pair, 8)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := core.SubcarrierVariances(&session.Baseline, pair)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := core.SubcarrierVariances(&session.Target, pair)
	if err != nil {
		t.Fatal(err)
	}
	isGood := map[int]bool{}
	for _, s := range good {
		isGood[s] = true
	}
	var gSum, bSum float64
	var gN, bN int
	for sub := 0; sub < csi.NumSubcarriers; sub++ {
		v := vb[sub] + vt[sub]
		if isGood[sub] {
			gSum += v
			gN++
		} else {
			bSum += v
			bN++
		}
	}
	if gSum/float64(gN) >= bSum/float64(bN) {
		t.Errorf("selected subcarriers not lower-variance: %v vs %v", gSum/float64(gN), bSum/float64(bN))
	}
}

// --- Degraded-mode pipeline (fault tolerance) ---

// zeroAntennaInPlace kills one antenna's RF chain across a capture.
func zeroAntennaInPlace(c *csi.Capture, ant int) {
	for i := range c.Packets {
		m := c.Packets[i].CSI.Clone()
		for sub := range m.Values[ant] {
			m.Values[ant][sub] = 0
		}
		c.Packets[i].CSI = m
	}
}

// zeroSubcarrierInPlace notches one subcarrier across a capture.
func zeroSubcarrierInPlace(c *csi.Capture, sub int) {
	for i := range c.Packets {
		m := c.Packets[i].CSI.Clone()
		for ant := range m.Values {
			m.Values[ant][sub] = 0
		}
		c.Packets[i].CSI = m
	}
}

func TestDiagnoseCapture(t *testing.T) {
	sc := simulate.Default()
	session, err := simulate.Session(sc, 61)
	if err != nil {
		t.Fatal(err)
	}
	if h := core.DiagnoseCapture(&session.Target); !h.Healthy() {
		t.Fatalf("clean capture diagnosed unhealthy: %+v", h)
	}
	zeroAntennaInPlace(&session.Target, 1)
	zeroSubcarrierInPlace(&session.Target, 7)
	h := core.DiagnoseCapture(&session.Target)
	if len(h.DeadAntennas) != 1 || h.DeadAntennas[0] != 1 {
		t.Errorf("dead antennas = %v, want [1]", h.DeadAntennas)
	}
	if len(h.DeadSubcarriers) != 1 || h.DeadSubcarriers[0] != 7 {
		t.Errorf("dead subcarriers = %v, want [7]", h.DeadSubcarriers)
	}
}

// trainSmallIdentifier fits an identifier on a few easy liquids.
func trainSmallIdentifier(t *testing.T, liquids []string, trials int) *core.Identifier {
	t.Helper()
	var sessions []*csi.Session
	var labels []string
	for li, name := range liquids {
		sc := simulate.Default()
		m, err := material.PaperDatabase().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Liquid = &m
		set, err := simulate.TrialSet(sc, trials, int64(1000+li*100))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range set {
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	id, err := core.TrainIdentifier(sessions, labels, core.IdentifierConfig{Pipeline: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestIdentifyRobustDegradedInvariance(t *testing.T) {
	// The degraded-mode invariance check: with one antenna dead across the
	// target capture, the easy liquids must still identify correctly, with
	// a flagged degradation report and finite features throughout.
	id := trainSmallIdentifier(t, []string{material.PureWater, material.Milk}, 4)
	for _, name := range []string{material.PureWater, material.Milk} {
		sc := simulate.Default()
		m, err := material.PaperDatabase().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Liquid = &m
		session, err := simulate.Session(sc, 77)
		if err != nil {
			t.Fatal(err)
		}
		zeroAntennaInPlace(&session.Target, 2)
		res, err := id.IdentifyRobust(session)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Material != name {
			t.Errorf("degraded %s identified as %s", name, res.Material)
		}
		d := res.Degradation
		if !d.Degraded {
			t.Errorf("%s: degradation not flagged: %+v", name, d)
		}
		if len(d.DeadAntennas) != 1 || d.DeadAntennas[0] != 2 {
			t.Errorf("%s: dead antennas = %v, want [2]", name, d.DeadAntennas)
		}
		if len(d.PairsUsed) != 1 || (d.PairsUsed[0] != core.AntennaPair{A: 0, B: 1}) {
			t.Errorf("%s: pairs used = %v, want [{0 1}]", name, d.PairsUsed)
		}
		if len(d.PairsImputed) != 2 {
			t.Errorf("%s: imputed pairs = %v, want 2", name, d.PairsImputed)
		}
		if d.ConfidenceScale <= 0 || d.ConfidenceScale >= 1 {
			t.Errorf("%s: confidence scale = %v, want in (0,1)", name, d.ConfidenceScale)
		}
		if res.Confidence <= 0 || res.Confidence > 1 || math.IsNaN(res.Confidence) {
			t.Errorf("%s: confidence = %v", name, res.Confidence)
		}
	}
}

func TestIdentifyRobustCleanSessionNotDegraded(t *testing.T) {
	id := trainSmallIdentifier(t, []string{material.PureWater, material.Milk}, 3)
	sc := simulate.Default()
	session, err := simulate.Session(sc, 83)
	if err != nil {
		t.Fatal(err)
	}
	res, err := id.IdentifyRobust(session)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation.Degraded {
		t.Errorf("clean session flagged degraded: %+v", res.Degradation)
	}
	if res.Degradation.ConfidenceScale != 1 {
		t.Errorf("clean confidence scale = %v", res.Degradation.ConfidenceScale)
	}
	want, err := id.Identify(session)
	if err != nil {
		t.Fatal(err)
	}
	if res.Material != want {
		t.Errorf("robust path %s differs from plain Identify %s on a clean session", res.Material, want)
	}
}

func TestIdentifyRobustBelowViabilityFloor(t *testing.T) {
	id := trainSmallIdentifier(t, []string{material.PureWater, material.Milk}, 3)
	sc := simulate.Default()
	session, err := simulate.Session(sc, 89)
	if err != nil {
		t.Fatal(err)
	}
	// Two of three antennas dead: below the floor.
	zeroAntennaInPlace(&session.Target, 1)
	zeroAntennaInPlace(&session.Target, 2)
	if _, err := id.IdentifyRobust(session); !errors.Is(err, core.ErrBelowViability) {
		t.Errorf("two dead antennas: err = %v, want ErrBelowViability", err)
	}
	// Too few packets: below the floor.
	short, err := simulate.Session(sc, 91)
	if err != nil {
		t.Fatal(err)
	}
	short.Target.Packets = short.Target.Packets[:2]
	if _, err := id.IdentifyRobust(short); !errors.Is(err, core.ErrBelowViability) {
		t.Errorf("2-packet capture: err = %v, want ErrBelowViability", err)
	}
}

func TestIdentifyRobustDeadCalibratedSubcarriers(t *testing.T) {
	// Killing some calibrated subcarriers must degrade, not break; killing
	// almost all of them must refuse.
	id := trainSmallIdentifier(t, []string{material.PureWater, material.Milk}, 3)
	sc := simulate.Default()
	session, err := simulate.Session(sc, 97)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := id.IdentifyRobust(session)
	if err != nil {
		t.Fatal(err)
	}
	good := clean.Degradation.SubcarriersTotal
	if good < 3 {
		t.Fatalf("calibrated subcarrier set too small to test: %d", good)
	}
	// Identify the calibrated set by probing the identifier's config via a
	// fresh extraction-free route: kill every subcarrier except two of the
	// calibrated ones by brute force — notch bins until only 2 usable.
	res := clean
	killed := 0
	for sub := 0; sub < csi.NumSubcarriers && res.Degradation.SubcarriersUsed > 2; sub++ {
		zeroSubcarrierInPlace(&session.Target, sub)
		killed++
		res, err = id.IdentifyRobust(session)
		if err != nil {
			t.Fatalf("after notching %d bins: %v", killed, err)
		}
	}
	if res.Degradation.SubcarriersUsed != 2 || !res.Degradation.Degraded {
		t.Fatalf("degradation = %+v, want 2 live subcarriers flagged", res.Degradation)
	}
	// One more calibrated kill drops below the floor.
	for sub := 0; sub < csi.NumSubcarriers; sub++ {
		zeroSubcarrierInPlace(&session.Target, sub)
	}
	if _, err := id.IdentifyRobust(session); !errors.Is(err, core.ErrBelowViability) {
		t.Errorf("all subcarriers dead: err = %v, want ErrBelowViability", err)
	}
}
