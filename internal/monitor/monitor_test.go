package monitor_test

import (
	"math"
	"testing"

	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/monitor"
	"repro/internal/simulate"
	"repro/wimi"
)

// streamScenario builds a continuous packet stream: quiet packets, then a
// liquid target, then quiet again. Returns the stream and the true
// appearance/removal boundaries.
func streamScenario(t *testing.T, liquid string, quietLen, targetLen int) (stream []csi.Packet, appearAt, removeAt int) {
	t.Helper()
	sc := simulate.Default()
	if liquid != "" {
		m, err := material.PaperDatabase().Get(liquid)
		if err != nil {
			t.Fatal(err)
		}
		sc.Liquid = &m
	}
	// One session = one NIC: the baseline capture supplies the quiet
	// stretches (before AND after), the target capture the middle — so the
	// stream has the phase continuity a real continuous capture would.
	need := 2*quietLen + targetLen
	sc.Packets = need
	s, err := simulate.Session(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, s.Baseline.Packets[:quietLen]...)
	appearAt = len(stream)
	stream = append(stream, s.Target.Packets[:targetLen]...)
	removeAt = len(stream)
	stream = append(stream, s.Baseline.Packets[quietLen:2*quietLen]...)
	return stream, appearAt, removeAt
}

func TestConfigValidate(t *testing.T) {
	if err := (monitor.Config{}).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (monitor.Config{BaselinePackets: 2}).Validate(); err == nil {
		t.Error("too-few baseline packets should error")
	}
	if err := (monitor.Config{Threshold: -1}).Validate(); err == nil {
		t.Error("negative threshold should error")
	}
	if err := (monitor.Config{Slack: -1}).Validate(); err == nil {
		t.Error("negative slack should error")
	}
}

func TestEventKindString(t *testing.T) {
	if monitor.TargetAppeared.String() != "target-appeared" || monitor.TargetRemoved.String() != "target-removed" {
		t.Error("event names wrong")
	}
	if monitor.EventKind(99).String() != "unknown" {
		t.Error("unknown kind should say so")
	}
}

func TestDetectorDetectsWaterAppearance(t *testing.T) {
	stream, appearAt, _ := streamScenario(t, material.PureWater, 40, 60)
	det, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30})
	if err != nil {
		t.Fatal(err)
	}
	var appeared *monitor.Event
	for _, pkt := range stream {
		ev, err := det.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil && ev.Kind == monitor.TargetAppeared && appeared == nil {
			appeared = ev
		}
	}
	if appeared == nil {
		t.Fatal("water target never detected")
	}
	// Detection latency: within 15 packets of the true boundary.
	if appeared.PacketIndex < appearAt || appeared.PacketIndex > appearAt+15 {
		t.Errorf("appearance at packet %d, truth %d", appeared.PacketIndex, appearAt)
	}
}

func TestDetectorDetectsRemoval(t *testing.T) {
	stream, _, removeAt := streamScenario(t, material.Soy, 40, 60)
	det, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30})
	if err != nil {
		t.Fatal(err)
	}
	var removed *monitor.Event
	for _, pkt := range stream {
		ev, err := det.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil && ev.Kind == monitor.TargetRemoved {
			removed = ev
		}
	}
	if removed == nil {
		t.Fatal("target removal never detected")
	}
	if removed.PacketIndex < removeAt || removed.PacketIndex > removeAt+20 {
		t.Errorf("removal at packet %d, truth %d", removed.PacketIndex, removeAt)
	}
}

func TestDetectorQuietStreamNoFalseAlarm(t *testing.T) {
	// An all-quiet stream must not alarm.
	stream, _, _ := streamScenario(t, "", 60, 1)
	quiet := stream[:60] // only the leading quiet stretch
	det, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i, pkt := range quiet {
		ev, err := det.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			t.Fatalf("false alarm at packet %d: %v", i, ev.Kind)
		}
	}
}

func TestDetectorNilCSI(t *testing.T) {
	det, err := monitor.NewDetector(monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Feed(csi.Packet{}); err == nil {
		t.Error("nil CSI should error")
	}
}

func TestDetectorReadyAndPresent(t *testing.T) {
	stream, _, _ := streamScenario(t, material.PureWater, 40, 60)
	det, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30})
	if err != nil {
		t.Fatal(err)
	}
	if det.Ready() {
		t.Error("detector should not be ready before learning")
	}
	for _, pkt := range stream[:35] {
		if _, err := det.Feed(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if !det.Ready() {
		t.Error("detector should be ready after the baseline window")
	}
	if det.TargetPresent() {
		t.Error("no target yet")
	}
}

func TestSegmenterProducesIdentifiableSession(t *testing.T) {
	// End-to-end: the segmenter carves a session out of the stream and the
	// identifier names the liquid.
	stream, _, _ := streamScenario(t, material.Honey, 40, 60)
	sg, err := monitor.NewSegmenter(monitor.Config{BaselinePackets: 30}, 5.32e9, 5, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	var session *csi.Session
	for _, pkt := range stream {
		s, _, err := sg.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			session = s
			break
		}
	}
	if session == nil {
		t.Fatal("segmenter never produced a session")
	}
	if err := session.Validate(); err != nil {
		t.Fatalf("segmented session invalid: %v", err)
	}
	if session.Target.Len() != 20 || session.Baseline.Len() != 20 {
		t.Errorf("segment sizes %d/%d", session.Baseline.Len(), session.Target.Len())
	}

	// Train an identifier and check the carved session classifies correctly.
	var sessions []*wimi.Session
	var labels []string
	for li, name := range []string{wimi.Honey, wimi.PureWater, wimi.Oil} {
		sc := wimi.DefaultScenario()
		sc.Liquid = wimi.MustLiquid(name)
		trials, err := wimi.SimulateTrials(sc, 6, int64(li*1000+77))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range trials {
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	id, err := wimi.Train(sessions, labels, wimi.DefaultTrainingConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := id.Identify(session)
	if err != nil {
		t.Fatal(err)
	}
	if got != wimi.Honey {
		t.Errorf("segmented session identified as %q, want honey", got)
	}
}

// TestSegmenterCarrier pins that a segmenter needs a finite, positive
// carrier, keeping the text of the values rejected before NaN and +Inf
// were.
func TestSegmenterCarrier(t *testing.T) {
	for _, tc := range []struct {
		carrier float64
		err     string
	}{
		{5.32e9, ""},
		{0, "monitor: non-positive carrier 0"},
		{-1, "monitor: non-positive carrier -1"},
		{math.NaN(), "monitor: non-finite carrier NaN"},
		{math.Inf(1), "monitor: non-finite carrier +Inf"},
		{math.Inf(-1), "monitor: non-positive carrier -Inf"},
	} {
		_, err := monitor.NewSegmenterOpts(monitor.Config{}, tc.carrier, monitor.SegmenterOptions{Settle: 5, TargetLen: 20, BaselineLen: 20})
		if (err == nil) != (tc.err == "") || (err != nil && err.Error() != tc.err) {
			t.Errorf("carrier %v: NewSegmenterOpts error %v, want %q", tc.carrier, err, tc.err)
		}
	}
}

func TestSegmenterValidation(t *testing.T) {
	if _, err := monitor.NewSegmenter(monitor.Config{}, 0, 5, 20, 20); err == nil {
		t.Error("zero carrier should error")
	}
	if _, err := monitor.NewSegmenter(monitor.Config{}, 5e9, -1, 20, 20); err == nil {
		t.Error("negative settle should error")
	}
	if _, err := monitor.NewSegmenter(monitor.Config{}, 5e9, 0, 0, 20); err == nil {
		t.Error("zero target length should error")
	}
	if _, err := monitor.NewSegmenter(monitor.Config{}, 5e9, 0, 20, 0); err == nil {
		t.Error("zero baseline length should error")
	}
	if _, err := monitor.NewSegmenter(monitor.Config{BaselinePackets: 1}, 5e9, 0, 20, 20); err == nil {
		t.Error("invalid detector config should propagate")
	}
}

func TestSegmenterOneSessionPerAppearance(t *testing.T) {
	stream, _, _ := streamScenario(t, material.Soy, 40, 80)
	sg, err := monitor.NewSegmenter(monitor.Config{BaselinePackets: 30}, 5.32e9, 3, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, pkt := range stream {
		s, _, err := sg.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			count++
		}
	}
	if count != 1 {
		t.Errorf("segmenter produced %d sessions for one appearance, want 1", count)
	}
}

func TestConfigValidateRebaseline(t *testing.T) {
	if err := (monitor.Config{RebaselineAfter: -1}).Validate(); err == nil {
		t.Error("negative RebaselineAfter should error")
	}
	if err := (monitor.Config{BaselinePackets: 30, RebaselineAfter: 10}).Validate(); err == nil {
		t.Error("RebaselineAfter below the re-learn window should error")
	}
	if err := (monitor.Config{RebaselineAfter: 40, RebaselineBlend: 1.5}).Validate(); err == nil {
		t.Error("RebaselineBlend above 1 should error")
	}
	if err := (monitor.Config{BaselinePackets: 20, RebaselineAfter: 40}).Validate(); err != nil {
		t.Errorf("valid rebaseline config rejected: %v", err)
	}
}

// TestDetectorRebaselineSurvivesGainDrift runs the same slowly-drifting
// quiet stream through a fixed-baseline detector and a re-baselining one:
// the drift must eventually alarm the fixed detector and not the
// re-baselining one.
func TestDetectorRebaselineSurvivesGainDrift(t *testing.T) {
	stream, _, _ := streamScenario(t, "", 60, 1)
	quiet := stream[:60]
	feedAll := func(det *monitor.Detector, gain float64) (alarms int) {
		// Replay the quiet stretch many times with a slowly growing gain
		// (every value scaled): a drifting front-end, no target.
		for rep := 0; rep < 30; rep++ {
			for _, pkt := range quiet {
				m := pkt.CSI.Clone()
				scale := complex(gain, 0)
				for _, row := range m.Values {
					for i := range row {
						row[i] *= scale
					}
				}
				ev, err := det.Feed(csi.Packet{Seq: pkt.Seq, CSI: m})
				if err != nil {
					t.Fatal(err)
				}
				if ev != nil && ev.Kind == monitor.TargetAppeared {
					alarms++
				}
				gain *= 1.0003 // ~20% drift over the run
			}
		}
		return alarms
	}
	fixed, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30})
	if err != nil {
		t.Fatal(err)
	}
	drifting, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30, RebaselineAfter: 60})
	if err != nil {
		t.Fatal(err)
	}
	fixedAlarms := feedAll(fixed, 1.0)
	driftAlarms := feedAll(drifting, 1.0)
	if fixedAlarms == 0 {
		t.Skip("drift too small to trip the fixed-baseline detector; scenario not discriminating")
	}
	if driftAlarms >= fixedAlarms {
		t.Errorf("re-baselining detector alarmed %d times vs %d without it", driftAlarms, fixedAlarms)
	}
	if drifting.Rebaselines() == 0 {
		t.Error("no re-learn ever completed despite 1800 quiet packets")
	}
}

func TestDetectorResetRelearns(t *testing.T) {
	stream, _, _ := streamScenario(t, material.PureWater, 40, 60)
	det, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30})
	if err != nil {
		t.Fatal(err)
	}
	appeared := false
	for _, pkt := range stream {
		ev, err := det.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil && ev.Kind == monitor.TargetAppeared {
			appeared = true
			break
		}
	}
	if !appeared {
		t.Fatal("target never detected before reset")
	}
	if !det.TargetPresent() {
		t.Fatal("detector should believe a target is present")
	}
	det.Reset()
	if det.Ready() || det.TargetPresent() {
		t.Error("reset detector should be back in the learning state")
	}
	// Re-learn on the water-present level: water becomes the new quiet, so
	// replaying the target stretch must not alarm.
	for _, pkt := range stream[40:100] {
		ev, err := det.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			t.Fatalf("event %v after reset onto a steady level", ev.Kind)
		}
	}
	if !det.Ready() {
		t.Error("detector never re-learned after reset")
	}
}

func TestSegmenterSlidingWindowEmitsMultipleSessions(t *testing.T) {
	stream, _, _ := streamScenario(t, material.Soy, 40, 80)
	sg, err := monitor.NewSegmenterOpts(monitor.Config{BaselinePackets: 30}, 5.32e9,
		monitor.SegmenterOptions{Settle: 3, TargetLen: 15, BaselineLen: 15, Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, pkt := range stream {
		s, _, err := sg.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			count++
			if s.Target.Len() != 15 {
				t.Fatalf("sliding session target length %d, want 15", s.Target.Len())
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("sliding session invalid: %v", err)
			}
		}
	}
	// ~80 target packets, first session after settle+15, then one per 10
	// more: at least 4 sessions for the one appearance.
	if count < 4 {
		t.Errorf("sliding segmenter produced %d sessions, want ≥ 4", count)
	}
}

func TestSegmenterAccessorsAndReset(t *testing.T) {
	stream, _, _ := streamScenario(t, material.Honey, 40, 60)
	sg, err := monitor.NewSegmenter(monitor.Config{BaselinePackets: 30}, 5.32e9, 5, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Ready() {
		t.Error("segmenter ready before learning")
	}
	zero, err := csi.NewMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sg.Feed(csi.Packet{Seq: 9999, CSI: zero}); err != nil {
		t.Fatal(err)
	}
	if sg.Degenerate() != 1 {
		t.Errorf("degenerate = %d, want 1", sg.Degenerate())
	}
	got := 0
	for _, pkt := range stream {
		s, _, err := sg.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			got++
		}
	}
	if got != 1 {
		t.Fatalf("expected one session, got %d", got)
	}
	sg.Reset()
	if sg.Ready() || sg.TargetPresent() {
		t.Error("reset segmenter should be back in the learning state")
	}
	// A full replay after reset must again produce a session.
	got = 0
	for _, pkt := range stream {
		s, _, err := sg.Feed(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			got++
		}
	}
	if got != 1 {
		t.Errorf("expected one session after reset replay, got %d", got)
	}
}

func TestDetectorSkipsDegeneratePackets(t *testing.T) {
	// All-zero packets (zeroed faults, dead stretches) must be skipped and
	// counted, not abort the monitor — and must not poison the baseline or
	// trip a false detection.
	stream, appearAt, _ := streamScenario(t, material.PureWater, 40, 60)
	zero, err := csi.NewMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	// Splice dead packets into the learning stretch and the quiet stretch.
	spliced := make([]csi.Packet, 0, len(stream)+4)
	for i, pkt := range stream {
		if i == 5 || i == 15 || i == 25 || i == 35 {
			spliced = append(spliced, csi.Packet{Seq: 9000 + uint32(i), CSI: zero})
		}
		spliced = append(spliced, pkt)
	}
	det, err := monitor.NewDetector(monitor.Config{BaselinePackets: 30})
	if err != nil {
		t.Fatal(err)
	}
	var appeared int = -1
	for i, pkt := range spliced {
		ev, err := det.Feed(pkt)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if ev != nil && ev.Kind == monitor.TargetAppeared && appeared < 0 {
			appeared = i
		}
	}
	if det.Degenerate() != 4 {
		t.Errorf("degenerate count = %d, want 4", det.Degenerate())
	}
	if appeared < 0 {
		t.Fatal("target never detected")
	}
	// 4 splices all land before the original appearAt index.
	if appeared < appearAt {
		t.Errorf("appearance at %d precedes the true boundary %d: dead packets tripped a false alarm",
			appeared, appearAt)
	}
}
