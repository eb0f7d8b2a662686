package gateway

import (
	"slices"
	"time"
)

// pick returns the backend with the fewest requests in flight among those
// that are routable, not in tried, and admitted by their breaker right
// now; a tie goes to the first in configuration order. The breaker check
// is read-only (Admits): the open→half-open transition stays with the
// Allow at send time. Returns nil when no backend qualifies.
func (g *Gateway) pick(tried []*backend) *backend {
	now := g.clock.Now()
	var best *backend
	var bestLoad int64
	for _, b := range g.backends {
		if slices.Contains(tried, b) || !b.routable(now) || !b.breaker.Admits() {
			continue
		}
		if n := b.inflight.Load(); best == nil || n < bestLoad {
			best, bestLoad = b, n
		}
	}
	return best
}

// retryAfterHint is the Retry-After the gateway reports when it sheds a
// request itself: the soonest moment any backend's penalty expires (they
// are all penalised when this is called), floored at one second, or the
// probe interval when no penalty is running (the soonest health can
// change).
func (g *Gateway) retryAfterHint() time.Duration {
	now := g.clock.Now()
	var soonest time.Duration
	for _, b := range g.backends {
		if until := b.penaltyUntil.Load(); until > now.UnixNano() {
			d := time.Duration(until - now.UnixNano())
			if soonest == 0 || d < soonest {
				soonest = d
			}
		}
	}
	if soonest == 0 {
		soonest = g.cfg.ProbeInterval
	}
	if soonest < time.Second {
		soonest = time.Second
	}
	return soonest
}
