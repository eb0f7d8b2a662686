package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/simulate"
)

// TestPipelineSelectionMatchesPublic pins the pipeline's good-subcarrier
// selection to SelectGoodSubcarriersSession: both rank bit-identical
// variance vectors and return the same subcarriers, cold, through a cold
// baseline cache and through a warm one. Sessions with +Inf at one
// subcarrier k of the selecting pair (a NaN variance) must also agree, and
// never pick k below P = 30; where k lies outside the clean selection,
// the selection and the feature vector are the clean session's, bit for
// bit.
func TestPipelineSelectionMatchesPublic(t *testing.T) {
	db := material.PaperDatabase()
	pl := NewPipeline()
	for seed := int64(0); seed < 12; seed++ {
		m, err := db.Get([]string{material.PureWater, material.Honey, material.Oil}[seed%3])
		if err != nil {
			t.Fatal(err)
		}
		sc := simulate.Default()
		sc.Liquid = &m
		sc.Packets = []int{20, 100}[seed%2]
		s, err := simulate.Session(sc, seed*7919)
		if err != nil {
			t.Fatal(err)
		}
		pair := AntennaPair{A: int(seed % 2), B: 2}
		for _, p := range []int{1, 4, 12, 30} {
			checkSelection(t, pl, fmt.Sprintf("seed %d", seed), s, pair, p)
		}
	}

	clean, err := simulate.Session(simulate.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cleanFeats, err := ExtractFeatures(clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair := AntennaPair{A: 0, B: 1} // the first default pair selects
	for _, k := range []int{0, 5, 12, 20, 29} {
		s := *clean
		s.Target.Packets = slices.Clone(clean.Target.Packets)
		s.Target.Packets[3].CSI = clean.Target.Packets[3].CSI.Clone()
		s.Target.Packets[3].CSI.Values[0][k] = complex(math.Inf(1), 0)
		for _, p := range []int{1, 4, cfg.GoodSubcarriers, csi.NumSubcarriers - 1} {
			got := checkSelection(t, pl, fmt.Sprintf("+Inf at %d", k), &s, pair, p)
			if slices.Contains(got, k) {
				t.Fatalf("+Inf at %d, P=%d: picked %v", k, p, got)
			}
			want, err := SelectGoodSubcarriersSession(clean, pair, p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(want, k) && !slices.Equal(got, want) {
				t.Fatalf("+Inf at %d, P=%d: picked %v, clean session %v", k, p, got, want)
			}
		}
		if slices.Contains(cleanFeats.GoodSubcarriers, k) {
			continue
		}
		feats, err := ExtractFeatures(&s, cfg)
		if err != nil {
			t.Fatalf("+Inf at unselected %d: %v", k, err)
		}
		if !slices.Equal(feats.GoodSubcarriers, cleanFeats.GoodSubcarriers) || len(feats.Vector) != len(cleanFeats.Vector) {
			t.Fatalf("+Inf at %d: selection %v, clean %v", k, feats.GoodSubcarriers, cleanFeats.GoodSubcarriers)
		}
		for i, v := range feats.Vector {
			if math.Float64bits(v) != math.Float64bits(cleanFeats.Vector[i]) {
				t.Fatalf("+Inf at %d: feature %d = %v, clean %v", k, i, v, cleanFeats.Vector[i])
			}
		}
	}
}

// checkSelection runs the pipeline's selection of p subcarriers of s cold,
// through a cold baseline cache and through a warm one, requires each to
// equal SelectGoodSubcarriersSession and its variances to be bit-identical
// to SubcarrierVariances, and returns the public selection.
func checkSelection(t *testing.T, pl *Pipeline, name string, s *csi.Session, pair AntennaPair, p int) []int {
	t.Helper()
	vb, err := SubcarrierVariances(&s.Baseline, pair)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := SubcarrierVariances(&s.Target, pair)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectGoodSubcarriersSession(s, pair, p)
	if err != nil {
		t.Fatal(err)
	}
	bc := &BaselineCache{}
	bc.sync(s, DefaultConfig())
	for i, cache := range []*BaselineCache{nil, bc, bc} {
		got, err := pl.selectGoodSubcarriersSession(s, pair, p, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s P=%d run %d: pipeline picked %v, public %v", name, p, i, got, want)
		}
		for sub := range vb {
			if math.Float64bits(pl.varBase[sub]) != math.Float64bits(vb[sub]) ||
				math.Float64bits(pl.varTarget[sub]) != math.Float64bits(vt[sub]) {
				t.Fatalf("%s run %d: subcarrier %d variances (%v, %v), public (%v, %v)",
					name, i, sub, pl.varBase[sub], pl.varTarget[sub], vb[sub], vt[sub])
			}
		}
	}
	return want
}
