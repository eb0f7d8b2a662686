package core_test

import (
	"testing"

	"repro/internal/core"
)

// TestBaselineCacheBitIdentical pins the cached-DSP contract: identification
// through a BaselineCache — cold, warm, and across invalidations when the
// cache is re-pointed at a different frozen baseline — returns exactly what
// the uncached path returns, for every probe session.
func TestBaselineCacheBitIdentical(t *testing.T) {
	id, sessions := guardIdentifier(t)
	want := make([]core.Detail, len(sessions))
	for i, s := range sessions {
		det, err := id.IdentifyDetailedP(core.NewPipeline(), s, nil)
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
				got, err := id.IdentifyDetailedP(pl, s, &bc)
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
}
