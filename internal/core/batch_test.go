package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/raceflag"
)

// TestIdentifyDetailedBatchPBitIdentical pins the batched contract without
// baseline caches: IdentifyDetailedBatchCachedP over any batch size returns
// exactly what per-session IdentifyDetailedP calls would, including when
// some jobs in the batch fail.
func TestIdentifyDetailedBatchPBitIdentical(t *testing.T) {
	id, sessions := guardIdentifier(t)
	want := make([]core.Detail, len(sessions))
	for i, s := range sessions {
		det, err := id.IdentifyDetailedP(core.NewPipeline(), s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = det
	}
	var bs core.BatchScratch
	for size := 1; size <= len(sessions); size++ {
		batch := sessions[:size]
		pls := make([]*core.Pipeline, size)
		for i := range pls {
			pls[i] = core.NewPipeline()
		}
		dets, errs := id.IdentifyDetailedBatchCachedP(&bs, pls, batch, nil)
		for i := range batch {
			if errs[i] != nil {
				t.Fatalf("size=%d job %d: %v", size, i, errs[i])
			}
			if dets[i] != want[i] {
				t.Fatalf("size=%d job %d: batch %+v, sequential %+v", size, i, dets[i], want[i])
			}
		}
	}
	// A failing job must not poison its neighbours: slot 1 gets an invalid
	// session, slots 0 and 2 must classify exactly as before.
	mixed := []*csi.Session{sessions[0], {}, sessions[1]}
	pls := []*core.Pipeline{core.NewPipeline(), core.NewPipeline(), core.NewPipeline()}
	dets, errs := id.IdentifyDetailedBatchCachedP(&bs, pls, mixed, nil)
	if errs[1] == nil {
		t.Fatal("invalid session in batch produced no error")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid neighbours errored: %v / %v", errs[0], errs[2])
	}
	if dets[0] != want[0] || dets[2] != want[1] {
		t.Fatalf("neighbours of failed job diverged: %+v / %+v", dets[0], dets[2])
	}
}

// TestIdentifyBatchPZeroAllocSteadyState extends the zero-allocation guard
// to the batch path without baseline caches: a warmed batch scratch plus
// warmed pipelines identify a full micro-batch without heap allocation.
func TestIdentifyBatchPZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	id, sessions := guardIdentifier(t)
	var bs core.BatchScratch
	pls := make([]*core.Pipeline, len(sessions))
	for i := range pls {
		pls[i] = core.NewPipeline()
	}
	for i := 0; i < 3; i++ { // warm every growable buffer
		_, errs := id.IdentifyDetailedBatchCachedP(&bs, pls, sessions, nil)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		_, errs := id.IdentifyDetailedBatchCachedP(&bs, pls, sessions, nil)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
	})
	if avg != 0 {
		t.Fatalf("warmed IdentifyDetailedBatchCachedP allocates %.2f times per run, want 0", avg)
	}
}
