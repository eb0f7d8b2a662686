package gateway

import (
	"hash/fnv"
	"sort"
	"time"
)

// bodyKey names a request by content: identical measurement sessions
// hash to the same key and therefore prefer the same backend, keeping
// that backend's pipeline pools warm for the session's shape.
func bodyKey(body []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return h.Sum64()
}

// pick chooses the backend for key: rendezvous order filtered to
// routable backends not yet tried this request, with a bounded-load
// escape — the hash-preferred backend is skipped while it carries more
// than LoadSlack requests above the least-loaded candidate, so affinity
// never turns into a hot spot. Returns nil when no candidate is routable.
func (g *Gateway) pick(key uint64, tried map[*backend]bool) *backend {
	now := g.clock.Now()
	candidates := make([]*backend, 0, len(g.backends))
	minInflight := int64(1<<63 - 1)
	for _, b := range g.backends {
		if tried[b] || !b.routable(now) {
			continue
		}
		candidates = append(candidates, b)
		if n := b.inflight.Load(); n < minInflight {
			minInflight = n
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].score(key) > candidates[j].score(key)
	})
	for _, b := range candidates {
		if b.inflight.Load() <= minInflight+int64(g.cfg.LoadSlack) {
			return b
		}
	}
	// Every candidate is above the load bound relative to a now-stale
	// minimum (loads move while we rank); fall back to hash order.
	return candidates[0]
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
