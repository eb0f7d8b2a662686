package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// outcome classifies one request's answer.
type outcome uint8

const (
	outPending     outcome = iota
	outOK                  // 200 whose answer equals the oracle's
	outMismatch            // 200 whose answer differs from the oracle's
	outShed                // 429
	outUnavailable         // 503
	outTimeout             // 504
	outStatus              // any other status
	outTransport           // no HTTP answer
)

// sliceMode says how an op of the traced run is sent. The traced run cycles
// through the modes in short slices of the measured window, so traced and
// untraced requests see the same system state and the difference between
// their latencies is the cost of tracing.
type sliceMode uint8

const (
	modePlain  sliceMode = iota // no spans: every op of a default run
	modeTraced                  // spans recorded
	modeDirect                  // traced, and sent to a backend instead of the gateway
)

// sliceModeAt returns the mode of an op falling due t after the epoch. Warm-up
// ops are always plain. With direct set (a traced cluster run) every third
// slice bypasses the gateway, so one run measures the same traffic with and
// without the gateway hop.
func sliceModeAt(t, warmup time.Duration, traced, direct bool) sliceMode {
	if !traced || t < warmup {
		return modePlain
	}
	cycle := []sliceMode{modeTraced, modePlain}
	if direct {
		cycle = append(cycle, modeDirect)
	}
	return cycle[int((t-warmup)/traceSlice)%len(cycle)]
}

// traceSlice is the length of one slice of the traced run: short against the
// drift of a shared machine, long against the latency of one op.
const traceSlice = 200 * time.Millisecond

// reloadBody marks an op that is a POST /v1/reload rather than an identify.
const reloadBody = -1

// op is one request: its timestamps are ns since the run's epoch.
type op struct {
	due     int64 // when the schedule sends it (closed loop: when its client was free)
	queued  int64 // when the generator handed it to a connection (open loop)
	sent    int64
	done    int64
	body    int32 // index into the bodies, or reloadBody
	outcome outcome
	mode    sliceMode
}

// loader sends requests and checks every answer against the oracle.
type loader struct {
	client  *http.Client
	entry   string   // base URL requests go to
	direct  []string // backend base URLs for modeDirect ops
	bodies  [][]byte
	oracle  []verdict
	version string // the modelVersion every answer must carry
	epoch   time.Time
	spans   *spanBuf // nil in a default run
	firstID int      // op id of ops[0]: ids stay unique across a run's launches
	spanAt  int64    // ns from the run's epoch to this loader's, so spans share one clock

	mu         sync.Mutex
	mismatches []string // the first few, for the report
}

// newLoadClient returns a client holding at most conns connections per host.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 15 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func (l *loader) since() int64 { return int64(time.Since(l.epoch)) }

// send performs ops[i] and records its outcome and, in a traced slice, its
// spans. A traced run records every reload.
func (l *loader) send(i int, o *op) {
	id := l.firstID + i
	url := l.entry
	if o.mode == modeDirect {
		url = l.direct[id%len(l.direct)]
	}
	o.sent = l.since()
	if o.body == reloadBody {
		o.outcome = l.reload(url)
	} else {
		o.outcome = l.identify(url, int(o.body))
	}
	o.done = l.since()
	if l.spans == nil || (o.mode == modePlain && o.body != reloadBody) {
		return
	}
	root := l.spans.add(span{op: uint32(id), parent: -1, name: spanOp, start: l.spanAt + o.due, end: l.spanAt + o.done})
	name := spanRoundtrip
	if o.body == reloadBody {
		name = spanReload
	}
	l.spans.add(span{op: uint32(id), parent: root, name: name, start: l.spanAt + o.sent, end: l.spanAt + o.done})
}

func statusOutcome(code int) outcome {
	switch code {
	case http.StatusOK:
		return outOK
	case http.StatusTooManyRequests:
		return outShed
	case http.StatusServiceUnavailable:
		return outUnavailable
	case http.StatusGatewayTimeout:
		return outTimeout
	default:
		return outStatus
	}
}

func (l *loader) post(url string, body []byte) (outcome, []byte) {
	resp, err := l.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outTransport, nil
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return outTransport, nil
	}
	return statusOutcome(resp.StatusCode), data
}

// identify sends one body and checks a 200 against the oracle: the material,
// the exact bits of Ω̄ and the model version must all match.
func (l *loader) identify(base string, body int) outcome {
	out, data := l.post(base+"/v1/identify", l.bodies[body])
	if out != outOK {
		return out
	}
	var ans serve.IdentifyResponse
	want := l.oracle[body]
	if err := json.Unmarshal(data, &ans); err != nil {
		l.noteMismatch(fmt.Sprintf("body %d: undecodable answer %q: %v", body, data, err))
		return outMismatch
	}
	if ans.Material != want.material || math.Float64bits(ans.Omega) != want.omega || ans.ModelVersion != l.version {
		l.noteMismatch(fmt.Sprintf("body %d: got %s Ω̄=%v model %s, want %s Ω̄=%v model %s", body,
			ans.Material, ans.Omega, ans.ModelVersion, want.material, math.Float64frombits(want.omega), l.version))
		return outMismatch
	}
	return outOK
}

func (l *loader) reload(base string) outcome {
	out, _ := l.post(base+"/v1/reload", nil)
	return out
}

func (l *loader) noteMismatch(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.mismatches) < 5 {
		l.mismatches = append(l.mismatches, msg)
	}
}

// openLoop sends every op at epoch+due through a fixed pool of workers, one
// per client connection, and returns once all are answered. An op falling due
// while every worker is busy waits in the queue, and its latency still counts
// from its due time: a stall is charged to every request it delays, not only
// to the one it hit. outstanding counts ops handed out and not yet answered.
func (l *loader) openLoop(ops []op, workers int, outstanding *atomic.Int64) {
	queue := make(chan int, len(ops)) // one slot per op: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				l.send(i, &ops[i])
				outstanding.Add(-1)
			}
		}()
	}
	onPromptThread(func() {
		for i := range ops {
			sleepUntil(l.epoch.Add(time.Duration(ops[i].due)))
			ops[i].queued = l.since()
			outstanding.Add(1)
			queue <- i
		}
	})
	close(queue)
	wg.Wait()
}

// sleepUntil blocks until t. Go's timers wake up to a millisecond late on
// Linux, which would show as generator lag, so the last two milliseconds are
// slept with nanosleep, whose kernel timer is precise to tens of
// microseconds.
func sleepUntil(t time.Time) {
	const coarse = 2 * time.Millisecond
	if d := time.Until(t); d > coarse {
		time.Sleep(d - coarse)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (runtime preemption) just loops
	}
}

// closedLoop runs clients that each send their next request as soon as the
// previous one is answered, until end. Bodies follow order round robin. A
// client finding a reload due sends it in place of its next identify, through
// the same connection pool. Ops are written to ops in id order; closedLoop
// returns how many were sent, and full when ops ran out before end.
func (l *loader) closedLoop(ops []op, clients int, end time.Duration, order []int32,
	reloadEvery time.Duration, modeAt func(time.Duration) sliceMode) (n int, full bool) {
	var next atomic.Int64
	var nextReload atomic.Int64
	nextReload.Store(int64(reloadEvery))
	var overflow atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := l.since()
				if now >= int64(end) {
					return
				}
				id := int(next.Add(1) - 1)
				if id >= len(ops) {
					overflow.Store(true)
					return
				}
				o := &ops[id]
				o.due, o.body, o.mode = now, order[id%len(order)], modeAt(time.Duration(now))
				if r := nextReload.Load(); reloadEvery > 0 && now >= r && nextReload.CompareAndSwap(r, r+int64(reloadEvery)) {
					o.body = reloadBody
				}
				l.send(id, o)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), len(ops)), overflow.Load()
}
