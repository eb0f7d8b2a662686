package resilience

import (
	"sync"
	"testing"
	"time"
)

func TestBackoffBaseSequence(t *testing.T) {
	b := NewBackoff(BackoffConfig{Initial: 100 * time.Millisecond, Max: time.Second, Jitter: JitterNone})
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := b.Base(i); got != w {
			t.Errorf("Base(%d) = %v, want %v", i, got, w)
		}
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) with JitterNone = %v, want %v", i, got, w)
		}
	}
}

// TestBackoffJitterBounds checks every mode's delay stays inside its
// documented envelope, with and without a jitter cap.
func TestBackoffJitterBounds(t *testing.T) {
	const initial = 100 * time.Millisecond
	cases := []struct {
		name     string
		cfg      BackoffConfig
		attempt  int
		min, max time.Duration
	}{
		{"equal within 50%", BackoffConfig{Initial: initial, Jitter: JitterEqual, Seed: 7}, 0,
			initial, initial + initial/2},
		{"equal capped", BackoffConfig{Initial: initial, Jitter: JitterEqual, JitterCap: 10 * time.Millisecond, Seed: 7}, 2,
			400 * time.Millisecond, 410 * time.Millisecond},
		{"full within base", BackoffConfig{Initial: initial, Jitter: JitterFull, Seed: 7}, 1,
			0, 200 * time.Millisecond},
		{"full capped", BackoffConfig{Initial: initial, Jitter: JitterFull, JitterCap: 20 * time.Millisecond, Seed: 7}, 3,
			0, 20 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBackoff(tc.cfg)
			for i := 0; i < 50; i++ {
				got := b.Delay(tc.attempt)
				if got < tc.min || got > tc.max {
					t.Fatalf("draw %d: delay %v outside [%v, %v]", i, got, tc.min, tc.max)
				}
			}
		})
	}
}

// TestBackoffDelaySequencePinned pins the jittered delays of a fixed seed,
// so a change to how or when the jitter stream is made cannot move them.
func TestBackoffDelaySequencePinned(t *testing.T) {
	for _, tc := range []struct {
		jitter JitterMode
		want   []time.Duration
	}{
		{JitterEqual, []time.Duration{118651418, 206600049, 520818770, 883527481, 1635054766, 3574789949}},
		{JitterFull, []time.Duration{37302836, 13200099, 241637540, 167054962, 70109533, 1149579899}},
	} {
		b := NewBackoff(BackoffConfig{Initial: 100 * time.Millisecond, Max: 3 * time.Second, Jitter: tc.jitter, Seed: 42})
		for i, want := range tc.want {
			if got := b.Delay(i); got != want {
				t.Errorf("%v jitter: Delay(%d) = %d, want %d", tc.jitter, i, got, want)
			}
		}
	}
}

// TestBackoffDeterministicAcrossRuns pins that the same seed yields the
// same jittered schedule.
func TestBackoffDeterministicAcrossRuns(t *testing.T) {
	mk := func() *Backoff {
		return NewBackoff(BackoffConfig{Initial: 50 * time.Millisecond, Max: time.Second, Jitter: JitterFull, Seed: 42})
	}
	a, b := mk(), mk()
	for i := 0; i < 20; i++ {
		if da, db := a.Delay(i), b.Delay(i); da != db {
			t.Fatalf("attempt %d: %v vs %v with identical seeds", i, da, db)
		}
	}
}

// TestBackoffDelayConcurrent shares one Backoff among goroutines, as a
// gateway's retry loops share its one: under -race, every Delay stays
// inside its mode's envelope.
func TestBackoffDelayConcurrent(t *testing.T) {
	for _, jitter := range []JitterMode{JitterEqual, JitterFull} {
		b := NewBackoff(BackoffConfig{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: jitter})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					attempt := i % 5
					base := b.Base(attempt)
					lo, hi := base, base+base/2
					if jitter == JitterFull {
						lo, hi = 0, base
					}
					if d := b.Delay(attempt); d < lo || d > hi {
						t.Errorf("%v jitter: Delay(%d) = %v outside [%v, %v]", jitter, attempt, d, lo, hi)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
