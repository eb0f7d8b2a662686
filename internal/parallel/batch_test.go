package parallel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBatcherDeliversEverything(t *testing.T) {
	for _, inflight := range []int{1, 3} {
		var mu sync.Mutex
		var got []int
		b, err := NewBatcher[int](64, 8, inflight, func(batch []int) {
			mu.Lock()
			got = append(got, batch...)
			if len(batch) == 0 || len(batch) > 8 {
				t.Errorf("batch size %d out of bounds", len(batch))
			}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		for i := 0; i < n; i++ {
			if err := b.Submit(i); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		b.Close()
		mu.Lock()
		if len(got) != n {
			t.Fatalf("inflight %d: delivered %d items, want %d", inflight, len(got), n)
		}
		slices.Sort(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("inflight %d: item %d lost or delivered twice", inflight, i)
			}
		}
		mu.Unlock()
	}
}

// TestBatcherCoalescesUnderLoad holds every run: exactly inflight batches
// run at once, everything submitted meanwhile queues, and once released
// the queue comes out in batches of at most maxBatch.
func TestBatcherCoalescesUnderLoad(t *testing.T) {
	for _, inflight := range []int{1, 2, 3} {
		const maxBatch, queued = 4, 13
		release := make(chan struct{})
		started := make(chan struct{}, inflight+queued)
		var running, peak atomic.Int64
		var mu sync.Mutex
		var sizes []int
		delivered := 0
		b, err := NewBatcher[int](64, maxBatch, inflight, func(batch []int) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			mu.Lock()
			sizes = append(sizes, len(batch))
			delivered += len(batch)
			mu.Unlock()
			started <- struct{}{}
			<-release
			running.Add(-1)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Occupy every dispatcher: each lone item dispatches at once.
		for i := 0; i < inflight; i++ {
			if err := b.Submit(i); err != nil {
				t.Fatal(err)
			}
			<-started
		}
		// No dispatcher is free, so everything submitted now must queue.
		for i := 0; i < queued; i++ {
			if err := b.Submit(inflight + i); err != nil {
				t.Fatal(err)
			}
		}
		if got := b.QueueLen(); got != queued {
			t.Fatalf("inflight %d: %d queued behind the held runs, want %d", inflight, got, queued)
		}
		if got := running.Load(); got != int64(inflight) {
			t.Fatalf("inflight %d: %d runs executing, want %d", inflight, got, inflight)
		}
		close(release)
		b.Close()

		mu.Lock()
		if delivered != inflight+queued {
			t.Errorf("inflight %d: delivered %d items, want %d", inflight, delivered, inflight+queued)
		}
		for i, n := range sizes[:inflight] {
			if n != 1 {
				t.Errorf("inflight %d: held run %d carried %d items, want 1", inflight, i, n)
			}
		}
		if max := slices.Max(sizes[inflight:]); max != maxBatch {
			t.Errorf("inflight %d: largest queued batch %d, want %d (sizes %v)", inflight, max, maxBatch, sizes)
		}
		mu.Unlock()
		if p := peak.Load(); p != int64(inflight) {
			t.Errorf("inflight %d: peak concurrent runs %d", inflight, p)
		}
	}
}

// TestBatcherCloseDrains closes while a run is in flight and more items
// are queued: Close refuses new items at once, returns only after the held
// run finishes, and every queued item is delivered.
func TestBatcherCloseDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var delivered atomic.Int64
	b, err := NewBatcher[int](128, 16, 1, func(batch []int) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		delivered.Add(int64(len(batch)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Submit(0); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 1; i < 100; i++ {
		if err := b.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	// Read the closed flag under the admission lock: a probing Submit
	// would enqueue an item.
	for closing := false; !closing; {
		runtime.Gosched()
		b.mu.RLock()
		closing = b.closed
		b.mu.RUnlock()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a run was still in flight")
	default:
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain within 5s")
	}
	if delivered.Load() != 100 {
		t.Errorf("drained %d items, want 100", delivered.Load())
	}
}

func TestBatcherShedsWhenSaturated(t *testing.T) {
	hold := make(chan struct{})
	started := make(chan struct{}, 3)
	b, err := NewBatcher[int](2, 1, 1, func(batch []int) {
		started <- struct{}{}
		<-hold
	})
	if err != nil {
		t.Fatal(err)
	}
	// One item blocks in run; two fill the queue; the next must shed. The
	// item in run does not count against the queue.
	if err := b.Submit(0); err != nil {
		t.Fatal(err)
	}
	<-started
	if n := b.QueueLen(); n != 0 {
		t.Fatalf("item taken by the dispatcher counted as queued (%d)", n)
	}
	for i := 1; i <= 2; i++ {
		if err := b.Submit(i); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := b.Submit(99); err != ErrSaturated {
		t.Errorf("saturated batcher: %v, want ErrSaturated", err)
	}
	close(hold)
	b.Close()
}

func TestBatcherSubmitAfterClose(t *testing.T) {
	b, err := NewBatcher[int](4, 2, 1, func([]int) {})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := b.Submit(1); err != ErrClosed {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestBatcherConcurrentSubmitters(t *testing.T) {
	var delivered atomic.Int64
	b, err := NewBatcher[int](256, 8, 2, func(batch []int) {
		if len(batch) == 0 || len(batch) > 8 {
			t.Errorf("batch size %d out of bounds", len(batch))
		}
		delivered.Add(int64(len(batch)))
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b.Submit(i) == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	b.Close()
	if delivered.Load() != accepted.Load() {
		t.Errorf("accepted %d but delivered %d", accepted.Load(), delivered.Load())
	}
}

func TestBatcherRejectsBadConfig(t *testing.T) {
	if _, err := NewBatcher[int](0, 1, 1, func([]int) {}); err == nil {
		t.Error("zero queue depth should error")
	}
	if _, err := NewBatcher[int](1, 0, 1, func([]int) {}); err == nil {
		t.Error("zero max batch should error")
	}
	for _, inflight := range []int{0, -1} {
		if _, err := NewBatcher[int](1, 1, inflight, func([]int) {}); err == nil {
			t.Errorf("in-flight bound %d should error", inflight)
		}
	}
	if _, err := NewBatcher[int](1, 1, 1, nil); err == nil {
		t.Error("nil run should error")
	}
}
