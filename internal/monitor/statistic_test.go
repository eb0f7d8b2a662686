package monitor

import (
	"math"
	"testing"

	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/simulate"
)

// directLogAmplitudes is the statistic's sum written cell by cell, one
// Hypot and one Log per cell: the definition logAmplitudes must match.
func directLogAmplitudes(m *csi.Matrix) (sum float64, n int) {
	for _, row := range m.Values {
		for _, v := range row {
			a := math.Hypot(real(v), imag(v))
			if a > 0 {
				sum += math.Log(a)
				n++
			}
		}
	}
	return sum, n
}

// directStatistic is statistic over directLogAmplitudes.
func directStatistic(m *csi.Matrix) float64 {
	sum, n := directLogAmplitudes(m)
	if n == 0 {
		return math.Inf(-1)
	}
	return sum / float64(n)
}

// checkStatistic compares the statistic of m with the direct formula: the
// same cells counted, the same degenerate verdict, and within 1e-12 when
// the value is finite (bit-equal when it is not).
func checkStatistic(t *testing.T, name string, m *csi.Matrix) {
	t.Helper()
	_, gotN := logAmplitudes(m)
	_, wantN := directLogAmplitudes(m)
	if gotN != wantN {
		t.Errorf("%s: %d cells counted, direct formula counts %d", name, gotN, wantN)
	}
	got, want := statistic(m), directStatistic(m)
	gotBad := math.IsInf(got, 0) || math.IsNaN(got)
	wantBad := math.IsInf(want, 0) || math.IsNaN(want)
	switch {
	case gotBad != wantBad:
		t.Errorf("%s: statistic %v, direct %v: the degenerate verdicts differ", name, got, want)
	case wantBad:
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: statistic %v, direct %v", name, got, want)
		}
	case math.Abs(got-want) > 1e-12:
		t.Errorf("%s: statistic %v, direct %v (diff %g)", name, got, want, got-want)
	}
}

func TestStatisticMatchesDirectFormulaOnSimulatedPackets(t *testing.T) {
	for _, liquid := range []string{"", material.PureWater, material.Honey, material.Oil} {
		sc := simulate.Default()
		if liquid != "" {
			m, err := material.PaperDatabase().Get(liquid)
			if err != nil {
				t.Fatal(err)
			}
			sc.Liquid = &m
		}
		sc.Packets = 50
		s, err := simulate.Session(sc, 17)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*csi.Capture{&s.Baseline, &s.Target} {
			for i := range c.Packets {
				checkStatistic(t, liquid, c.Packets[i].CSI)
			}
		}
	}
}

// TestStatisticMatchesDirectFormulaOnEdgeCells puts one special cell into
// an ordinary packet, and fills whole packets with it: cells whose |H|² is
// zero, subnormal, overflowing or not finite take the direct formula's
// path, including cells whose |H| is positive while |H|² underflows.
func TestStatisticMatchesDirectFormulaOnEdgeCells(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cells := map[string]complex128{
		"zero":             0,
		"negative zero":    complex(math.Copysign(0, -1), math.Copysign(0, -1)),
		"smallest":         complex(5e-324, 0),
		"subnormal":        complex(1e-310, -1e-310),
		"square subnormal": complex(1e-160, 0),
		"square is zero":   complex(1e-170, 1e-170),
		"smallest normal":  complex(math.Sqrt(0x1p-1022), 0),
		"1e200":            complex(1e200, 0),
		"square overflows": complex(1e154, 1e154),
		"largest":          complex(math.MaxFloat64, math.MaxFloat64),
		"NaN":              complex(nan, 0),
		"NaN,NaN":          complex(nan, nan),
		"+Inf":             complex(inf, 0),
		"-Inf":             complex(-inf, 1),
		"Inf,NaN":          complex(nan, -inf),
	}
	for name, cell := range cells {
		for _, numAnt := range []int{1, 3} {
			m, err := csi.NewMatrix(numAnt)
			if err != nil {
				t.Fatal(err)
			}
			for a, row := range m.Values {
				for k := range row {
					row[k] = complex(0.3+0.01*float64(k), -0.2*float64(a+1))
				}
			}
			m.Values[0][7] = cell
			checkStatistic(t, name+" in one cell", m)
			for _, row := range m.Values {
				for k := range row {
					row[k] = cell
				}
			}
			checkStatistic(t, name+" in every cell", m)
		}
	}
}

// TestStatisticRenormalisesLongProducts feeds a packet of 1200 cells whose
// |H|² mantissas are all near 2: without the periodic renormalisation the
// mantissa product would overflow.
func TestStatisticRenormalisesLongProducts(t *testing.T) {
	m, err := csi.NewMatrix(40)
	if err != nil {
		t.Fatal(err)
	}
	for a, row := range m.Values {
		for k := range row {
			row[k] = complex(math.Sqrt(1.999)*math.Ldexp(1, a-20), 0)
		}
	}
	checkStatistic(t, "40 antennas", m)
}

// TestStatisticDetectorEventsMatchDirectFormula runs every paper liquid
// over 20 simulation seeds, each stream three passes of 60 quiet then 200
// target packets, through one detector fed packets and one fed the
// direct formula's statistic: every event and skipped packet must match.
func TestStatisticDetectorEventsMatchDirectFormula(t *testing.T) {
	const seeds, passes, quiet, target = 20, 3, 60, 200
	db := material.PaperDatabase()
	events := 0
	for _, name := range db.Names() {
		liquid, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			sc := simulate.Default()
			sc.Liquid = &liquid
			sc.Packets = target
			s, err := simulate.Session(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			pass := append(append([]csi.Packet(nil), s.Baseline.Packets[:quiet]...), s.Target.Packets...)
			got, err := NewDetector(Config{BaselinePackets: 30})
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewDetector(Config{BaselinePackets: 30})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < passes*len(pass); k++ {
				pkt := pass[k%len(pass)]
				ge, err := got.Feed(pkt)
				if err != nil {
					t.Fatal(err)
				}
				we, err := want.observe(directStatistic(pkt.CSI))
				if err != nil {
					t.Fatal(err)
				}
				if (ge == nil) != (we == nil) || ge != nil && *ge != *we {
					t.Fatalf("%s seed %d packet %d: event %+v, direct formula %+v", name, seed, k, ge, we)
				}
				if ge != nil {
					events++
				}
			}
			if got.Degenerate() != want.Degenerate() {
				t.Fatalf("%s seed %d: %d packets skipped, direct formula skips %d",
					name, seed, got.Degenerate(), want.Degenerate())
			}
		}
	}
	if events == 0 {
		t.Fatal("the corpus raised no event: it tests nothing")
	}
	t.Logf("%d events over %d liquids × %d seeds", events, db.Len(), seeds)
}

// BenchmarkStatistic times the statistic of one simulated 3-antenna packet.
func BenchmarkStatistic(b *testing.B) {
	sc := simulate.Default()
	s, err := simulate.Session(sc, 3)
	if err != nil {
		b.Fatal(err)
	}
	m := s.Baseline.Packets[0].CSI
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statisticSink = statistic(m)
	}
}

// statisticSink keeps BenchmarkStatistic's call from being optimised away.
var statisticSink float64
