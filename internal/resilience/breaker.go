package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Allow while the breaker refuses
// traffic.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes all traffic, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses all traffic until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen admits a bounded number of probe requests; enough
	// successes close the breaker, any failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig parameterises a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// open (default 5).
	FailureThreshold int
	// OpenFor is the cool-down before an open breaker half-opens
	// (default 5 s).
	OpenFor time.Duration
	// HalfOpenProbes is both the number of concurrent probes half-open
	// admits and the successes required to close (default 1).
	HalfOpenProbes int
	// Clock supplies time (default RealClock).
	Clock Clock
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker with half-open
// probing. The usage contract: call Allow before the guarded operation;
// when it returns nil, report the outcome with exactly one Record call.
// Allow/Record are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu           sync.Mutex
	state        BreakerState
	failures     int       // consecutive failures while closed
	openedAt     time.Time // when the breaker last tripped
	probesOut    int       // probes admitted in half-open, not yet recorded
	probeSuccess int       // successful probes this half-open episode
}

// NewBreaker builds a breaker (zero config fields take defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether one request may proceed. It returns
// ErrBreakerOpen while the breaker is open or all half-open probe slots
// are taken; a nil return MUST be paired with one Record call.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.cfg.Clock.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return ErrBreakerOpen
		}
		// Cool-down elapsed: half-open and admit this caller as the first
		// probe.
		b.state = BreakerHalfOpen
		b.probesOut = 1
		b.probeSuccess = 0
		return nil
	default: // BreakerHalfOpen
		if b.probesOut >= b.cfg.HalfOpenProbes {
			return ErrBreakerOpen
		}
		b.probesOut++
		return nil
	}
}

// Admits reports whether Allow would admit one request right now, without
// changing any state: a router can skip an open, cooling breaker while the
// open→half-open transition stays with the Allow at send time.
func (b *Breaker) Admits() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.cfg.Clock.Now().Sub(b.openedAt) >= b.cfg.OpenFor
	default: // BreakerHalfOpen
		return b.probesOut < b.cfg.HalfOpenProbes
	}
}

// Record reports the outcome of an operation Allow admitted.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		if b.probesOut > 0 {
			b.probesOut--
		}
		if !success {
			// One failed probe reopens immediately and restarts the
			// cool-down.
			b.trip()
			return
		}
		b.probeSuccess++
		if b.probeSuccess >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.failures = 0
			b.probesOut = 0
			b.probeSuccess = 0
		}
	case BreakerOpen:
		// A late Record from a request admitted before the trip: while
		// open, outcomes change nothing.
	}
}

// trip moves to open and stamps the cool-down start. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Clock.Now()
	b.failures = 0
	b.probesOut = 0
	b.probeSuccess = 0
}

// State returns the breaker's current position (open flips to reporting
// half-open only when an Allow crosses the cool-down).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
