package resilience

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// JitterMode selects how randomness spreads a backoff delay.
type JitterMode int

const (
	// JitterNone uses the plain exponential delay.
	JitterNone JitterMode = iota
	// JitterEqual adds up to 50% of the base delay on top of it — the
	// collector's historical behaviour: delay ∈ [base, 1.5·base).
	JitterEqual
	// JitterFull draws the whole delay uniformly from [0, base) (AWS
	// "full jitter"): maximal desynchronisation of reconnect storms at
	// the cost of occasionally near-zero waits.
	JitterFull
)

func (m JitterMode) String() string {
	switch m {
	case JitterNone:
		return "none"
	case JitterEqual:
		return "equal"
	case JitterFull:
		return "full"
	}
	return fmt.Sprintf("JitterMode(%d)", int(m))
}

// BackoffConfig parameterises an exponential backoff schedule.
type BackoffConfig struct {
	// Initial is the attempt-1 base delay (default 100 ms).
	Initial time.Duration
	// Max caps the exponential base (default 3 s).
	Max time.Duration
	// Multiplier grows the base per attempt (default 2).
	Multiplier float64
	// Jitter selects the randomisation mode (default JitterEqual).
	Jitter JitterMode
	// JitterCap, when positive, bounds the random component added (equal
	// jitter) or drawn (full jitter) — so a long base delay cannot smear
	// into an even longer one unboundedly.
	JitterCap time.Duration
	// Seed seeds the jitter stream; zero selects 1.
	Seed int64
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Initial <= 0 {
		c.Initial = 100 * time.Millisecond
	}
	if c.Max <= 0 {
		c.Max = 3 * time.Second
	}
	if c.Multiplier < 1 {
		c.Multiplier = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Backoff produces a deterministic, seeded backoff schedule. The zero
// attempt is the first retry. Safe for one goroutine; each retry loop
// owns its own Backoff.
type Backoff struct {
	cfg BackoffConfig

	mu sync.Mutex
	// rng is the seeded jitter stream, made by the first Delay: seeding a
	// math/rand source fills a 607-word table, and most schedules (one per
	// gateway request) never back off at all.
	rng *rand.Rand
}

// NewBackoff builds a schedule from the config (zero fields take
// defaults).
func NewBackoff(cfg BackoffConfig) *Backoff {
	return &Backoff{cfg: cfg.withDefaults()}
}

// Base returns the unjittered exponential delay for a retry attempt
// (attempt 0 = first retry), capped at Max.
func (b *Backoff) Base(attempt int) time.Duration {
	d := float64(b.cfg.Initial)
	for i := 0; i < attempt; i++ {
		d *= b.cfg.Multiplier
		if d >= float64(b.cfg.Max) {
			return b.cfg.Max
		}
	}
	if d > float64(b.cfg.Max) {
		return b.cfg.Max
	}
	return time.Duration(d)
}

// Delay returns the jittered delay for a retry attempt, consuming one
// draw from the seeded jitter stream (exactly one per call, for every
// mode, so schedules stay aligned across modes with the same seed).
func (b *Backoff) Delay(attempt int) time.Duration {
	base := b.Base(attempt)
	b.mu.Lock()
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.cfg.Seed))
	}
	u := b.rng.Float64()
	b.mu.Unlock()
	switch b.cfg.Jitter {
	case JitterNone:
		return base
	case JitterFull:
		span := base
		if b.cfg.JitterCap > 0 && span > b.cfg.JitterCap {
			span = b.cfg.JitterCap
		}
		return time.Duration(u * float64(span))
	default: // JitterEqual
		span := base / 2
		if b.cfg.JitterCap > 0 && span > b.cfg.JitterCap {
			span = b.cfg.JitterCap
		}
		return base + time.Duration(u*float64(span))
	}
}
