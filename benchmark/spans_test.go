package main

import (
	"slices"
	"testing"
)

func TestUnattributedSubtractsReplayedStages(t *testing.T) {
	spans := []span{
		{op: 1, parent: -1, name: spanOp, start: 0, end: 10_000},
		{op: 1, parent: 0, name: spanRoundtrip, start: 1_000, end: 9_000},
		{op: 1, parent: 1, name: spanDecodeJSON, start: 20_000, end: 20_500},
		{op: 1, parent: 1, name: spanFeatures, start: 21_000, end: 22_500},
		{op: 1, parent: 1, name: spanClassify, start: 23_000, end: 25_000},
		// A span that is not a stage does not count against its parent.
		{op: 1, parent: 1, name: spanHubFeed, start: 0, end: 3_000},
		// A round trip without replayed stages has no unattributed time.
		{op: 2, parent: -1, name: spanRoundtrip, start: 0, end: 5_000},
		// Stages under another root name count only for that root.
		{op: 3, parent: -1, name: spanHubVerdict, start: 0, end: 4_000},
		{op: 3, parent: 7, name: spanFeatures, start: 5_000, end: 6_000},
	}
	got := unattributed(spans, spanRoundtrip, replayStages...)
	if want := []float64{8_000 - 500 - 1_500 - 2_000}; !slices.Equal(got, want) {
		t.Fatalf("unattributed round trip = %v, want %v", got, want)
	}
	got = unattributed(spans, spanHubVerdict, spanFeatures, spanClassify)
	if want := []float64{3_000}; !slices.Equal(got, want) {
		t.Fatalf("unattributed verdict = %v, want %v", got, want)
	}
}

func TestSpanBufCountsDropsWhenFull(t *testing.T) {
	b := newSpanBuf(2)
	for i := 0; i < 3; i++ {
		b.add(span{op: uint32(i), parent: -1})
	}
	if len(b.recorded()) != 2 || b.dropped.Load() != 1 {
		t.Fatalf("recorded %d, dropped %d; want 2 and 1", len(b.recorded()), b.dropped.Load())
	}
}
