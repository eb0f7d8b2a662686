package parallel

import (
	"errors"
	"fmt"
	"sync"
)

// ErrSaturated is returned by Batcher.Submit when the admission queue is
// full — the caller should shed the request (HTTP 429) rather than block.
var ErrSaturated = errors.New("parallel: batch queue saturated")

// ErrClosed is returned by Batcher.Submit after Close has begun draining.
var ErrClosed = errors.New("parallel: batcher closed")

// Batcher coalesces concurrently submitted items into bounded batches and
// runs each batch on one of at most inflight dispatcher goroutines.
//
// Batching is opportunistic, the adaptive batching of Clipper (NSDI'17):
// there is no timer. An idle dispatcher takes the first item that arrives,
// greedily drains whatever else is already queued (up to maxBatch) and
// runs the batch inline; whatever arrives during the run queues and forms
// the next batch. A lone item therefore dispatches at once, and batches
// grow with load and cost an idle request nothing. Admission is strictly
// bounded: Submit never blocks, it either enqueues or reports
// ErrSaturated, which keeps the service's memory and tail latency finite
// no matter the offered load.
//
// Close stops admission, drains everything already queued through run, and
// waits for every dispatcher to finish — the graceful-shutdown contract.
type Batcher[T any] struct {
	queue    chan T
	maxBatch int
	run      func(batch []T)

	// mu guards closed: Submit holds it shared while it sends, so Close
	// never closes the queue under a send.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewBatcher starts inflight dispatchers. queueDepth bounds admission,
// maxBatch bounds batch size and inflight bounds how many batches run at
// once. run is called with 1..maxBatch items, from up to inflight
// goroutines concurrently, and must not retain the slice. With inflight 1
// the runs are serialised, so run may own unsynchronised state.
func NewBatcher[T any](queueDepth, maxBatch, inflight int, run func(batch []T)) (*Batcher[T], error) {
	if queueDepth < 1 {
		return nil, fmt.Errorf("parallel: queue depth %d, need ≥ 1", queueDepth)
	}
	if maxBatch < 1 {
		return nil, fmt.Errorf("parallel: max batch %d, need ≥ 1", maxBatch)
	}
	if inflight < 1 {
		return nil, fmt.Errorf("parallel: in-flight bound %d, need ≥ 1", inflight)
	}
	if run == nil {
		return nil, fmt.Errorf("parallel: nil run function")
	}
	b := &Batcher[T]{
		queue:    make(chan T, queueDepth),
		maxBatch: maxBatch,
		run:      run,
	}
	b.wg.Add(inflight)
	for i := 0; i < inflight; i++ {
		go b.dispatch()
	}
	return b, nil
}

// Submit enqueues one item without blocking. It returns ErrSaturated when
// the admission queue is full and ErrClosed after Close.
func (b *Batcher[T]) Submit(item T) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	select {
	case b.queue <- item:
		return nil
	default:
		return ErrSaturated
	}
}

// QueueLen reports how many submitted items await a dispatcher — a
// readiness / backpressure signal, inherently racy and advisory. An item
// sent while a dispatcher waits on the queue goes straight to it and is
// never counted.
func (b *Batcher[T]) QueueLen() int { return len(b.queue) }

// Close stops admission, drains the queue through run, and waits for
// every dispatcher to exit. Safe to call more than once.
func (b *Batcher[T]) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// dispatch is one dispatcher goroutine: wait for an item, drain what is
// already queued behind it, run the batch, repeat until closed and drained.
func (b *Batcher[T]) dispatch() {
	defer b.wg.Done()
	batch := make([]T, 0, b.maxBatch)
	for {
		first, ok := <-b.queue
		if !ok {
			return
		}
		batch = append(batch, first)
	drain:
		for len(batch) < b.maxBatch {
			select {
			case item, ok := <-b.queue:
				if !ok {
					break drain
				}
				batch = append(batch, item)
			default:
				break drain
			}
		}
		b.run(batch)
		clear(batch) // the scratch must not pin delivered items
		batch = batch[:0]
	}
}
