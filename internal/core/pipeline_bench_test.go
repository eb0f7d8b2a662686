package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/simulate"
)

// BenchmarkIdentifyDetailedP times one warmed-pipeline identification of a
// 20- and a 100-packet session against a model whose subcarriers are
// calibrated and forced at training, as every trained model serves them.
// Each case rotates over 16 distinct sessions, so the branch predictor
// cannot learn one session's data the way it does when a single input
// repeats.
func BenchmarkIdentifyDetailedP(b *testing.B) {
	id, _ := guardIdentifier(b)
	db := material.PaperDatabase()
	liquids := []string{material.PureWater, material.Honey, material.Oil}
	for _, packets := range []int{20, 100} {
		sessions := make([]*csi.Session, 16)
		for i := range sessions {
			m, err := db.Get(liquids[i%len(liquids)])
			if err != nil {
				b.Fatal(err)
			}
			sc := simulate.Default()
			sc.Liquid = &m
			sc.Packets = packets
			if sessions[i], err = simulate.Session(sc, int64(900_001+i*7919)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("packets=%d", packets), func(b *testing.B) {
			pl := core.NewPipeline()
			for _, s := range sessions { // warm every growable buffer
				if _, err := id.IdentifyDetailedP(pl, s, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := id.IdentifyDetailedP(pl, sessions[i%len(sessions)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
