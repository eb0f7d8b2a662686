// Package resilience holds the failure-handling building blocks the
// gateway's routing loop composes: a circuit breaker with half-open
// probing, capped jittered backoff, a shrinking per-request deadline
// budget, and a Retry-After parser bounded on both sides. The loop itself
// lives in the gateway (internal/gateway's identify), because what to do
// after a failure depends on which backend answered how.
//
// Every primitive draws time from a Clock and randomness from a seeded
// generator, mirroring internal/faults: the same (config, seed) pair
// makes the same decisions in the same order, so the chaos tests that
// exercise failover are reproducible and any failure they find replays
// exactly.
package resilience

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock abstracts wall time for the resilience primitives. Production
// code uses RealClock; tests drive a FakeClock so breaker cool-downs and
// retry delays elapse instantly and deterministically.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FakeClock is a manually advanced clock. A Sleep parks until Advance
// moves the clock past its wake time; everything is ordered and
// lock-protected, so tests that interleave goroutines with Advance are
// race-free.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan struct{}
}

// NewFakeClock starts a fake clock at a fixed far-future epoch
// (2100-01-01). Far-future matters: Budget derives real context.Context
// deadlines from fake-clock times, and an epoch in the real past would
// make every such context arrive already expired.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Unix(4_102_444_800, 0)}
}

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep parks until Advance moves the clock to now+d, or ctx is done.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	c.mu.Lock()
	w := &fakeWaiter{at: c.now.Add(d), ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Advance moves the clock forward by d and wakes every sleeper whose
// deadline has passed, earliest first.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	sort.SliceStable(c.waiters, func(i, j int) bool { return c.waiters[i].at.Before(c.waiters[j].at) })
	var remaining []*fakeWaiter
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			close(w.ch)
		} else {
			remaining = append(remaining, w)
		}
	}
	c.waiters = remaining
	c.mu.Unlock()
}
