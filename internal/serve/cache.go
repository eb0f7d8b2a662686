package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// cacheKey identifies one verdict: the SHA-256 of the raw request body
// plus the content hash of the model that answered. Hashing the wire bytes
// — the same bytes the gateway's rendezvous router hashes — lets a hit be
// decided before the request and trace decode.
// Binding the model version into the key makes hot-swap invalidation
// structural — entries written under an old model can never be returned
// for the new one; they simply stop matching and are evicted by LRU
// pressure.
type cacheKey struct {
	digest  [32]byte
	version string
}

// verdictCache is a bounded LRU from capture+model digest to verdict. A
// plain mutex suffices: hits replace the whole pipeline (trace decode, DSP,
// classify), so the lock is never the bottleneck it would be on the miss
// path.
type verdictCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	det core.Detail
}

func newVerdictCache(max int) *verdictCache {
	return &verdictCache{
		max: max,
		ll:  list.New(),
		m:   make(map[cacheKey]*list.Element, max),
	}
}

func (c *verdictCache) get(k cacheKey) (core.Detail, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return core.Detail{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).det, true
}

func (c *verdictCache) put(k cacheKey, det core.Detail) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheEntry).det = det
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, det: det})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the current entry count (tests).
func (c *verdictCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
