package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/raceflag"
)

// TestBaselineCacheBitIdentical pins the cached-DSP contract: identification
// through a BaselineCache — cold, warm, and across invalidations when the
// cache is re-pointed at a different frozen baseline — returns exactly what
// the uncached path returns, for every probe session.
func TestBaselineCacheBitIdentical(t *testing.T) {
	id, sessions := guardIdentifier(t)
	want := make([]core.Detail, len(sessions))
	for i, s := range sessions {
		det, err := id.IdentifyDetailedP(core.NewPipeline(), s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = det
	}

	// One cache re-pointed across every session (each has its own baseline
	// slice, so every hop is an identity miss), twice over (second pass
	// exercises invalidation back to already-seen baselines), plus repeats
	// on the same session (warm hits).
	var bc core.BaselineCache
	pl := core.NewPipeline()
	for pass := 0; pass < 2; pass++ {
		for i, s := range sessions {
			for rep := 0; rep < 3; rep++ { // rep 0 cold, reps 1-2 warm
				got, err := id.IdentifyDetailedCachedP(pl, s, &bc)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Fatalf("pass %d session %d rep %d: cached %+v != uncached %+v",
						pass, i, rep, got, want[i])
				}
			}
		}
	}

	// The cached batch path, caches sparse (some sessions cached, some not),
	// must match too.
	caches := make([]*core.BaselineCache, len(sessions))
	for i := range caches {
		if i%2 == 0 {
			caches[i] = &core.BaselineCache{}
		}
	}
	pls := make([]*core.Pipeline, len(sessions))
	for i := range pls {
		pls[i] = core.NewPipeline()
	}
	var bs core.BatchScratch
	for rep := 0; rep < 2; rep++ {
		dets, errs := id.IdentifyDetailedBatchCachedP(&bs, pls, sessions, caches)
		for i := range sessions {
			if errs[i] != nil {
				t.Fatalf("rep=%d job %d: %v", rep, i, errs[i])
			}
			if dets[i] != want[i] {
				t.Fatalf("rep=%d job %d: cached batch %+v != uncached %+v",
					rep, i, dets[i], want[i])
			}
		}
	}
}

// TestIdentifyBatchCachedPZeroAllocSteadyState extends the batch allocation
// guard to the cached hub path: warm per-session caches, warmed pipelines
// and scratch identify a full micro-batch with zero heap allocations.
// Wired into `make alloc-guard`.
func TestIdentifyBatchCachedPZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	id, sessions := guardIdentifier(t)
	var bs core.BatchScratch
	pls := make([]*core.Pipeline, len(sessions))
	caches := make([]*core.BaselineCache, len(sessions))
	for i := range pls {
		pls[i] = core.NewPipeline()
		caches[i] = &core.BaselineCache{}
	}
	for i := 0; i < 3; i++ { // warm pipelines, scratch, and every cache
		_, errs := id.IdentifyDetailedBatchCachedP(&bs, pls, sessions, caches)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		_, errs := id.IdentifyDetailedBatchCachedP(&bs, pls, sessions, caches)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
	})
	if avg != 0 {
		t.Fatalf("warmed cached batch allocates %.2f times per run, want 0", avg)
	}
}
