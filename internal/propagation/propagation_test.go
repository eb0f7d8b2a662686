package propagation

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/mathx"
)

const carrier = 5.32e9

func baseScene() Scene {
	return Scene{
		Env:            EnvLab,
		LinkDistance:   2.0,
		NumRxAntennas:  3,
		AntennaSpacing: 0.028,
		Carrier:        carrier,
	}
}

func waterTarget(t *testing.T) *Target {
	t.Helper()
	db := material.PaperDatabase()
	water, err := db.Get(material.PureWater)
	if err != nil {
		t.Fatal(err)
	}
	return &Target{
		Liquid:        &water,
		Container:     material.ContainerPlastic,
		Diameter:      0.143,
		LateralOffset: 0.012,
	}
}

func TestEnvironmentByName(t *testing.T) {
	for _, name := range []string{"hall", "lab", "library"} {
		env, err := EnvironmentByName(name)
		if err != nil || env.Name != name {
			t.Errorf("EnvironmentByName(%q) = %v, %v", name, env, err)
		}
	}
	if _, err := EnvironmentByName("cave"); err == nil {
		t.Error("unknown environment should error")
	}
}

func TestEnvironmentMultipathOrdering(t *testing.T) {
	// hall < lab < library in scatterer count and gain (low/med/high).
	if !(EnvHall.NumScatterers < EnvLab.NumScatterers && EnvLab.NumScatterers < EnvLibrary.NumScatterers) {
		t.Error("scatterer counts not ordered")
	}
	if !(EnvHall.ScattererGain < EnvLab.ScattererGain && EnvLab.ScattererGain < EnvLibrary.ScattererGain) {
		t.Error("scatterer gains not ordered")
	}
}

func TestSceneValidate(t *testing.T) {
	good := baseScene()
	if err := good.Validate(); err != nil {
		t.Errorf("valid scene rejected: %v", err)
	}
	bad := good
	bad.LinkDistance = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero distance should error")
	}
	bad = good
	bad.NumRxAntennas = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero antennas should error")
	}
	bad = good
	bad.Carrier = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative carrier should error")
	}
	bad = good
	bad.Target = &Target{Diameter: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero-diameter target should error")
	}
	bad = good
	bad.Target = &Target{Diameter: 5}
	if err := bad.Validate(); err == nil {
		t.Error("target larger than link should error")
	}
}

func TestNewChannelErrors(t *testing.T) {
	if _, err := NewChannel(baseScene(), nil); err == nil {
		t.Error("nil rng should error")
	}
	bad := baseScene()
	bad.LinkDistance = -1
	if _, err := NewChannel(bad, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid scene should error")
	}
}

func TestFreeLinkLoSPhaseAndAmplitude(t *testing.T) {
	// With no scatterers and no target, H is exactly the LoS term.
	scene := baseScene()
	scene.Env = Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
	rng := rand.New(rand.NewSource(1))
	ch, err := NewChannel(scene, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ch.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	ants := ch.Antennas()
	f, _ := csi.SubcarrierFreq(carrier, 7)
	k := 2 * math.Pi * f / material.SpeedOfLight
	for i := range ants {
		losLen := math.Hypot(ants[i].X, ants[i].Y)
		want := cmplx.Rect(1/losLen, -k*losLen)
		got := m.Values[i][7]
		if cmplx.Abs(got-want) > 1e-9 {
			t.Errorf("antenna %d: H = %v, want %v", i, got, want)
		}
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	gen := func() *csi.Matrix {
		rng := rand.New(rand.NewSource(5))
		ch, err := NewChannel(baseScene(), rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ch.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := gen(), gen()
	for ant := range a.Values {
		for sub := range a.Values[ant] {
			if a.Values[ant][sub] != b.Values[ant][sub] {
				t.Fatal("same seed produced different channels")
			}
		}
	}
}

func TestChordsPerAntennaDiffer(t *testing.T) {
	scene := baseScene()
	scene.Target = waterTarget(t)
	rng := rand.New(rand.NewSource(2))
	ch, err := NewChannel(scene, rng)
	if err != nil {
		t.Fatal(err)
	}
	chords := ch.Chords()
	if len(chords) != 3 {
		t.Fatalf("chords = %v", chords)
	}
	for i, c := range chords {
		if c <= 0 || c > scene.Target.Diameter {
			t.Errorf("chord %d = %v out of (0, %v]", i, c, scene.Target.Diameter)
		}
	}
	if chords[0] == chords[1] && chords[1] == chords[2] {
		t.Error("all chords equal; lateral offset should differentiate antennas")
	}
}

func TestTargetAttenuatesLoS(t *testing.T) {
	// Adding a water target must reduce |H| (lossy liquid).
	scene := baseScene()
	scene.Env = Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
	rngA := rand.New(rand.NewSource(3))
	free, err := NewChannel(scene, rngA)
	if err != nil {
		t.Fatal(err)
	}
	scene.Target = waterTarget(t)
	rngB := rand.New(rand.NewSource(3))
	tgt, err := NewChannel(scene, rngB)
	if err != nil {
		t.Fatal(err)
	}
	mFree, err := free.Sample(rngA)
	if err != nil {
		t.Fatal(err)
	}
	mTgt, err := tgt.Sample(rngB)
	if err != nil {
		t.Fatal(err)
	}
	aFree, _ := mFree.Amplitude(0, 15)
	aTgt, _ := mTgt.Amplitude(0, 15)
	if aTgt >= aFree {
		t.Errorf("water target did not attenuate: %v vs %v", aTgt, aFree)
	}
}

func TestEmptyContainerBaselineDiffersFromFreeLink(t *testing.T) {
	// The empty container still shifts phase slightly (walls), which is why
	// the paper baselines against the EMPTY CONTAINER, not the free link.
	scene := baseScene()
	scene.Env = Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
	target := waterTarget(t)
	target.Liquid = nil // empty container
	scene.Target = target
	rng := rand.New(rand.NewSource(4))
	ch, err := NewChannel(scene, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ch.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	scene.Target = nil
	rng2 := rand.New(rand.NewSource(4))
	chFree, err := NewChannel(scene, rng2)
	if err != nil {
		t.Fatal(err)
	}
	mFree, err := chFree.Sample(rng2)
	if err != nil {
		t.Fatal(err)
	}
	pTgt, _ := m.Phase(0, 10)
	pFree, _ := mFree.Phase(0, 10)
	if math.Abs(mathx.AngleDiff(pTgt, pFree)) < 1e-6 {
		t.Error("empty container should still perturb the channel (wall phase)")
	}
}

func TestMaterialChangesPhaseDifferently(t *testing.T) {
	// Two different liquids must produce different inter-antenna phase
	// signatures — the physical basis of the whole system.
	measure := func(name string) float64 {
		db := material.PaperDatabase()
		liquid, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		scene := baseScene()
		scene.Env = Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
		scene.Target = &Target{
			Liquid:        &liquid,
			Container:     material.ContainerPlastic,
			Diameter:      0.143,
			LateralOffset: 0.012,
		}
		rng := rand.New(rand.NewSource(6))
		ch, err := NewChannel(scene, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ch.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.PhaseDiff(0, 1, 15)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	water := measure(material.PureWater)
	oil := measure(material.Oil)
	if math.Abs(mathx.AngleDiff(water, oil)) < 1e-4 {
		t.Errorf("water and oil produce the same phase difference %v", water)
	}
}

func TestMetalContainerBlocksMaterialSignal(t *testing.T) {
	// The Discussion's failure mode: a metal container reflects the signal,
	// so the liquid inside has (almost) no effect on the channel.
	measure := func(liquidName string) complex128 {
		db := material.PaperDatabase()
		liquid, err := db.Get(liquidName)
		if err != nil {
			t.Fatal(err)
		}
		scene := baseScene()
		scene.Env = Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
		scene.Target = &Target{
			Liquid:        &liquid,
			Container:     material.ContainerMetal,
			Diameter:      0.143,
			LateralOffset: 0.012,
		}
		rng := rand.New(rand.NewSource(7))
		ch, err := NewChannel(scene, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ch.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		return m.Values[0][15]
	}
	water := measure(material.PureWater)
	oil := measure(material.Oil)
	if cmplx.Abs(water-oil) > 1e-6 {
		t.Errorf("metal container should hide the liquid: water %v vs oil %v", water, oil)
	}
}

func TestPenetrationWeightDiffractionCliff(t *testing.T) {
	// u(d) must fall sharply once the diameter drops below the wavelength
	// (~5.6 cm at 5.32 GHz) — Fig. 19's cliff at the 3.2 cm beaker.
	lambda := material.SpeedOfLight / carrier
	weight := func(diam float64) float64 {
		scene := baseScene()
		tgt := waterTarget(t)
		tgt.Diameter = diam
		scene.Target = tgt
		rng := rand.New(rand.NewSource(8))
		ch, err := NewChannel(scene, rng)
		if err != nil {
			t.Fatal(err)
		}
		return ch.penetrationWeight(scene.Target, lambda)
	}
	sizes := []float64{0.143, 0.11, 0.089, 0.061, 0.032} // paper's five beakers
	prev := math.Inf(1)
	for _, d := range sizes {
		u := weight(d)
		if u >= prev {
			t.Errorf("penetration weight not decreasing at %v m: %v >= %v", d, u, prev)
		}
		prev = u
	}
	if big, small := weight(0.143), weight(0.032); small > big/2 {
		t.Errorf("no diffraction cliff: u(3.2cm)=%v vs u(14.3cm)=%v", small, big)
	}
}

func TestMultipathMakesSubcarrierVarianceUneven(t *testing.T) {
	// With multipath jitter, phase-difference variance across packets must
	// differ significantly across subcarriers — the basis of 'good
	// subcarrier' selection (Fig. 6).
	scene := baseScene()
	scene.Env = EnvLibrary
	rng := rand.New(rand.NewSource(9))
	ch, err := NewChannel(scene, rng)
	if err != nil {
		t.Fatal(err)
	}
	var c csi.Capture
	for pkt := 0; pkt < 60; pkt++ {
		m, err := ch.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		c.Packets = append(c.Packets, csi.Packet{CSI: m})
	}
	variances := phaseDiffVariances(t, &c)
	lo, hi := mathx.Min(variances), mathx.Max(variances)
	if hi < 3*lo {
		t.Errorf("subcarrier variances too uniform: min %v max %v (want frequency diversity)", lo, hi)
	}
}

// phaseDiffVariances is the per-subcarrier circular variance 1 − |R|/n of
// the antenna 0/1 phase difference over a capture, R being the resultant of
// its unit phasors.
func phaseDiffVariances(t *testing.T, c *csi.Capture) []float64 {
	t.Helper()
	out := make([]float64, csi.NumSubcarriers)
	for sub := range out {
		x, y, err := c.PhaseDiffResultant(0, 1, sub)
		if err != nil {
			t.Fatal(err)
		}
		out[sub] = 1 - math.Hypot(x, y)/float64(c.Len())
	}
	return out
}

func TestMoreMultipathMoreVariance(t *testing.T) {
	// Library (high multipath) must show higher average phase-difference
	// variance than hall (low multipath) — Fig. 17's mechanism.
	avgVar := func(env Environment, seed int64) float64 {
		scene := baseScene()
		scene.Env = env
		rng := rand.New(rand.NewSource(seed))
		ch, err := NewChannel(scene, rng)
		if err != nil {
			t.Fatal(err)
		}
		var c csi.Capture
		for pkt := 0; pkt < 50; pkt++ {
			m, err := ch.Sample(rng)
			if err != nil {
				t.Fatal(err)
			}
			c.Packets = append(c.Packets, csi.Packet{CSI: m})
		}
		return mathx.Mean(phaseDiffVariances(t, &c))
	}
	// Average over several seeds to avoid constellation luck.
	var hall, lib float64
	for seed := int64(0); seed < 5; seed++ {
		hall += avgVar(EnvHall, seed)
		lib += avgVar(EnvLibrary, seed)
	}
	if lib <= hall {
		t.Errorf("library variance %v not above hall %v", lib, hall)
	}
}

func TestMovingTargetChangesChordsPerPacket(t *testing.T) {
	scene := baseScene()
	scene.Env = Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
	tgt := waterTarget(t)
	tgt.DriftPerPacket = 0.003
	scene.Target = tgt
	rng := rand.New(rand.NewSource(11))
	ch, err := NewChannel(scene, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.BeginCapture(rng); err != nil {
		t.Fatal(err)
	}
	m1, err := ch.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Let the target move several packets, then compare.
	for i := 0; i < 8; i++ {
		if _, err := ch.Sample(rng); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := ch.Sample(rng)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := m1.Amplitude(0, 15)
	a2, _ := m2.Amplitude(0, 15)
	if math.Abs(a1-a2) < 1e-9 {
		t.Error("moving target left the channel unchanged across packets")
	}
	// A static target in an anechoic room produces identical packets.
	tgt2 := waterTarget(t)
	scene.Target = tgt2
	rng2 := rand.New(rand.NewSource(11))
	chStatic, err := NewChannel(scene, rng2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := chStatic.Sample(rng2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := chStatic.Sample(rng2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Values[0][15] != s2.Values[0][15] {
		t.Error("static anechoic channel should repeat exactly")
	}
}

func TestInterfererAffectsChannel(t *testing.T) {
	scene := baseScene()
	scene.Env = Environment{Name: "anechoic", NumScatterers: 0, RoomHalf: 1}
	scene.Target = waterTarget(t)
	rngA := rand.New(rand.NewSource(12))
	clean, err := NewChannel(scene, rngA)
	if err != nil {
		t.Fatal(err)
	}
	db := material.PaperDatabase()
	soy, err := db.Get(material.Soy)
	if err != nil {
		t.Fatal(err)
	}
	scene.Interferer = &Target{
		Liquid:        &soy,
		Container:     material.ContainerGlass,
		Diameter:      0.10,
		LateralOffset: 0.02,
	}
	rngB := rand.New(rand.NewSource(12))
	dirty, err := NewChannel(scene, rngB)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := clean.Sample(rngA)
	if err != nil {
		t.Fatal(err)
	}
	md, err := dirty.Sample(rngB)
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := mc.Amplitude(0, 15)
	ad, _ := md.Amplitude(0, 15)
	if ad >= ac {
		t.Errorf("soy interferer should attenuate further: %v vs %v", ad, ac)
	}
	// Invalid interferer positions are rejected.
	scene.InterfererPosition = 1.5
	if err := scene.Validate(); err == nil {
		t.Error("interferer position outside (0,1) should error")
	}
}
