package core

import (
	"math"
	"testing"

	"repro/internal/material"
	"repro/internal/simulate"
)

// TestPipelineSelectionMatchesPublic pins the pipeline's good-subcarrier
// selection to SelectGoodSubcarriersSession: both rank bit-identical
// variance vectors and return the same subcarriers, cold, through a cold
// baseline cache and through a warm one.
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
		vb, err := SubcarrierVariances(&s.Baseline, pair)
		if err != nil {
			t.Fatal(err)
		}
		vt, err := SubcarrierVariances(&s.Target, pair)
		if err != nil {
			t.Fatal(err)
		}
		bc := &BaselineCache{}
		bc.sync(s, DefaultConfig())
		for _, p := range []int{1, 4, 12, 30} {
			want, err := SelectGoodSubcarriersSession(s, pair, p)
			if err != nil {
				t.Fatal(err)
			}
			for i, cache := range []*BaselineCache{nil, bc, bc} {
				got, err := pl.selectGoodSubcarriersSession(s, pair, p, cache)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d P=%d run %d: pipeline picked %v, public %v", seed, p, i, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("seed %d P=%d run %d: pipeline picked %v, public %v", seed, p, i, got, want)
					}
				}
				for sub := range vb {
					if math.Float64bits(pl.varBase[sub]) != math.Float64bits(vb[sub]) ||
						math.Float64bits(pl.varTarget[sub]) != math.Float64bits(vt[sub]) {
						t.Fatalf("seed %d run %d: subcarrier %d variances (%v, %v), public (%v, %v)",
							seed, i, sub, pl.varBase[sub], pl.varTarget[sub], vb[sub], vt[sub])
					}
				}
			}
		}
	}
}
