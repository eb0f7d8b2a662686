package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/raceflag"
)

// guardIdentifier trains a small identifier plus probe sessions for the
// allocation and reuse guards.
func guardIdentifier(t testing.TB) (*core.Identifier, []*csi.Session) {
	t.Helper()
	sessions, labels := liquidSessions(t, []string{material.PureWater, material.Honey, material.Oil}, 3)
	id, err := core.TrainIdentifier(sessions, labels, core.IdentifierConfig{Pipeline: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return id, sessions
}

// TestPipelineReuseBitIdentical pins the pooled-path contract: one pipeline
// reused across many sessions yields exactly the results of a fresh
// pipeline per call and of the pool-backed wrappers.
func TestPipelineReuseBitIdentical(t *testing.T) {
	id, sessions := guardIdentifier(t)
	shared := core.NewPipeline()
	// Round-trip the shared pipeline through every session, then through the
	// first ones again: stale scratch from session N must never leak into
	// session N+1.
	probes := append(append([]*csi.Session(nil), sessions...), sessions[0], sessions[1])
	novelty := make(map[*csi.Session]float64)
	for i, s := range probes {
		want, err := id.IdentifyDetailedP(core.NewPipeline(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := id.IdentifyDetailedP(shared, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("probe %d: shared pipeline detail %+v != fresh %+v", i, got, want)
		}
		wrapped, err := id.IdentifyDetailed(s)
		if err != nil {
			t.Fatal(err)
		}
		if *wrapped != want {
			t.Fatalf("probe %d: wrapper detail %+v != fresh %+v", i, *wrapped, want)
		}
		// NoveltyScore borrows pooled pipelines, which earlier probes have
		// dirtied; a repeated session must score exactly as it did first.
		nov, err := id.NoveltyScore(s)
		if err != nil {
			t.Fatal(err)
		}
		if first, seen := novelty[s]; seen && nov != first {
			t.Fatalf("probe %d: repeated novelty %v != first %v", i, nov, first)
		}
		novelty[s] = nov
	}
}

// TestIdentifyPZeroAllocSteadyState guards the inference contract:
// a warmed pipeline runs a full identification — phase sanitisation,
// wavelet denoise, Ω̄ extraction, scaling, SVM vote — without heap
// allocation, both uncached (serve) and through a warm BaselineCache (the
// hub). Wired into `make alloc-guard`.
func TestIdentifyPZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	id, sessions := guardIdentifier(t)
	for _, tc := range []struct {
		name string
		bc   *core.BaselineCache
	}{
		{"nil-cache", nil},
		{"warm-cache", &core.BaselineCache{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := core.NewPipeline()
			s := sessions[0]
			for i := 0; i < 3; i++ { // warm every growable buffer and the cache
				if _, err := id.IdentifyDetailedP(pl, s, tc.bc); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if _, err := id.IdentifyDetailedP(pl, s, tc.bc); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("warmed IdentifyDetailedP allocates %.2f times per run, want 0", avg)
			}
		})
	}
}
