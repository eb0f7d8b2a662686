package monitorhub

import (
	"fmt"
	"testing"

	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/monitor"
)

// hubTemplates returns one read-only quiet→target packet stream per
// liquid, shared across streams and ops as wimi-hub shares its simulated
// fleet's: quietLen baseline packets, then targetLen target packets.
func hubTemplates(b *testing.B, quietLen, targetLen int, seed int64) [][]csi.Packet {
	var out [][]csi.Packet
	for li, name := range []string{material.PureWater, material.Honey} {
		out = append(out, liquidStream(b, name, quietLen, targetLen, seed+int64(li))[:quietLen+targetLen])
	}
	return out
}

// runFleet registers streams feeds on a fresh hub, interleaves the
// templates packet by packet across them (the arrival order a real hub
// sees) while the workers identify concurrently, drains the hub and
// returns how many sessions it identified.
func runFleet(b *testing.B, cfg Config, streams int, templates [][]csi.Packet) int {
	h, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	feeds := make([]func(csi.Packet) error, streams)
	for i := range feeds {
		if feeds[i], err = h.RegisterFeed(fmt.Sprintf("s-%02d", i)); err != nil {
			b.Fatal(err)
		}
	}
	for p := range templates[0] {
		for i, feed := range feeds {
			if err := feed(templates[i%len(templates)][p]); err != nil {
				b.Fatal(err)
			}
		}
	}
	h.Close() // drains every pending identification
	return int(h.Snapshot("", 0).Totals.Identified)
}

// BenchmarkHubStreams measures the fleet-monitoring path end to end: one
// op drives concurrent simulated streams through a hub — per-packet
// change-point detection, sliding-window segmentation, pooled
// identification, verdict hysteresis and drain.
//
//	pass-32x240   one full quiet→target pass on each of 32 streams, fed
//	              synchronously, drained to the last pending session
//	stride-heavy  sustained re-identification: 8 streams with a long
//	              target dwell and a short stride (TargetLen 16,
//	              BaselineLen 40, Stride 4), so per-stride session
//	              emission and classification dominate — the steady
//	              state of a long-lived fleet
func BenchmarkHubStreams(b *testing.B) {
	id := testIdentifier(b)
	b.Run("pass-32x240", func(b *testing.B) {
		templates := hubTemplates(b, 40, 200, 300)
		cfg := Config{Identifier: id, Monitor: monitor.Config{BaselinePackets: 30}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if runFleet(b, cfg, 32, templates) == 0 {
				b.Fatal("hub bench identified nothing")
			}
		}
	})
	b.Run("stride-heavy", func(b *testing.B) {
		// 60 quiet packets so the frozen baseline reaches BaselineLen 40
		// past the detection guard, then a 200-packet dwell the short
		// stride re-identifies about 45 times per stream.
		templates := hubTemplates(b, 60, 200, 700)
		cfg := Config{
			Identifier: id,
			Monitor:    monitor.Config{BaselinePackets: 30},
			Segment:    monitor.SegmenterOptions{Settle: 5, TargetLen: 16, BaselineLen: 40, Stride: 4},
			// Deep pending rings: every strided session is identified,
			// none shed, so one op is a fixed amount of classification
			// work however feed and worker goroutines interleave.
			PendingPerStream: 64,
		}
		const streams = 8
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if runFleet(b, cfg, streams, templates) < streams {
				b.Fatal("stride-heavy hub bench identified too little")
			}
		}
	})
}
