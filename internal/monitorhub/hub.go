// Package monitorhub scales the single-stream passive monitor to a fleet:
// one hub multiplexes many concurrent CSI streams (TCP collectors or
// in-process sources), runs per-stream CUSUM change-point detection and
// sliding-window segmentation, and identifies every completed session on
// pooled core.Pipelines — the paper's Fig. 1 vision at the scale the serving
// tier already classifies at.
//
// Backpressure is explicit end-to-end. Ingest never blocks: a completed
// session lands in the stream's bounded pending ring, and when the ring is
// full the OLDEST pending session is shed (and counted) — a slow classifier
// degrades freshness per stream, never stalls packet intake or starves other
// streams. Identification workers drain a dirty-stream FIFO in which each
// stream appears at most once, so a flooding stream gets one session per
// turn, round-robin with everyone else.
//
// Event flow gets hysteresis: "material-identified" fires on the first
// confident verdict of an appearance, "material-swapped" only after
// ConfirmVerdicts consecutive confident verdicts that agree on a different
// material, and "vessel-removed" rides the detector's TargetRemoved. Fleet
// state — per-stream state machine, last verdict, event-log tail, shed and
// degenerate counters, epoch-aggregated rates — is served over HTTP
// (/v1/fleet, /healthz, /readyz).
package monitorhub

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/monitor"
	"repro/internal/transport"
)

// Config parameterises the hub. Identifier is required; the zero value of
// every other field selects a default.
type Config struct {
	// Identifier classifies segmented sessions. Required.
	Identifier *core.Identifier
	// Carrier is the channel centre frequency stamped on segmented
	// sessions. Zero selects 5.32 GHz (the paper's channel).
	Carrier float64
	// Monitor configures every stream's change-point detector (including
	// the re-baselining knob for long-lived streams).
	Monitor monitor.Config
	// Segment shapes the sessions carved from each stream. Zero values
	// select Settle 5, TargetLen 20, BaselineLen 20, Stride 20 — sliding
	// re-identification on by default, because a hub stream is long-lived.
	Segment monitor.SegmenterOptions
	// Workers is the identification worker count (default GOMAXPROCS).
	Workers int
	// BatchMax bounds how many distinct dirty streams one worker drains
	// into a single batched classification (core.IdentifyDetailedBatchP:
	// per-capture DSP + one blocked SVM predict). A free worker never
	// waits for company: it classifies whatever is dirty, so batches form
	// only from streams that went dirty while every worker was busy.
	// 1 disables cross-stream batching (default 8).
	BatchMax int
	// PendingPerStream bounds each stream's ring of sessions awaiting
	// identification; overflow sheds the oldest (default 2).
	PendingPerStream int
	// ConfirmVerdicts is how many consecutive confident verdicts for the
	// same differing material confirm a swap (default 2).
	ConfirmVerdicts int
	// ConfidenceFloor is the minimum verdict confidence that counts toward
	// confirmation or swap; lower verdicts are recorded but ignored by the
	// hysteresis (default 0.5).
	ConfidenceFloor float64
	// EpochInterval is the fleet-stats aggregation cadence (default 5s).
	EpochInterval time.Duration
	// EventLog bounds the global event ring (default 256).
	EventLog int

	// testHold, when non-nil, runs on the worker goroutine before every
	// identification — the hook tests use to wedge the classifier
	// deterministically and watch the shed policy. Never set in production.
	testHold func(streamID string)
	// testVerdict, when non-nil, observes every delivered verdict in
	// per-stream delivery order — the hook the batched-vs-sequential
	// bit-identity test compares against. Never set in production.
	testVerdict func(streamID string, det core.Detail, err error)
}

func (c Config) withDefaults() Config {
	if c.Carrier == 0 {
		c.Carrier = 5.32e9
	}
	if c.Segment.Settle == 0 {
		c.Segment.Settle = 5
	}
	if c.Segment.TargetLen == 0 {
		c.Segment.TargetLen = 20
	}
	if c.Segment.BaselineLen == 0 {
		c.Segment.BaselineLen = 20
	}
	if c.Segment.Stride == 0 {
		c.Segment.Stride = 20
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchMax == 0 {
		c.BatchMax = 8
	}
	if c.PendingPerStream == 0 {
		c.PendingPerStream = 2
	}
	if c.ConfirmVerdicts == 0 {
		c.ConfirmVerdicts = 2
	}
	if c.ConfidenceFloor == 0 {
		c.ConfidenceFloor = 0.5
	}
	if c.EpochInterval == 0 {
		c.EpochInterval = 5 * time.Second
	}
	if c.EventLog == 0 {
		c.EventLog = 256
	}
	return c
}

// Hub multiplexes many monitored CSI streams into one identification worker
// pool and aggregates fleet state.
type Hub struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	streams map[string]*stream
	order   []*stream // registration order, for stable /v1/fleet output
	closed  bool

	// Dirty-stream FIFO: streams with pending sessions, each present at
	// most once (st.queued). Workers block on qcond.
	qmu     sync.Mutex
	qcond   *sync.Cond
	qhead   *stream
	qtail   *stream
	qclosed bool

	// Event ring (global, bounded).
	evmu    sync.Mutex
	events  []Event
	evNext  int
	evSeq   uint64
	evTotal uint64

	// Epoch aggregation.
	epmu      sync.Mutex
	epoch     uint64
	prevTotal Totals
	lastEpoch EpochStats

	ingestWG sync.WaitGroup
	workerWG sync.WaitGroup
	tickerWG sync.WaitGroup
}

// Event is one entry of the fleet event log.
type Event struct {
	// Seq is a hub-wide monotonically increasing event number.
	Seq uint64 `json:"seq"`
	// Epoch is the aggregation epoch the event fell into.
	Epoch uint64 `json:"epoch"`
	// Stream is the emitting stream's ID.
	Stream string `json:"stream"`
	// Kind is one of target-appeared, vessel-removed, material-identified,
	// material-swapped, stream-down, stream-up.
	Kind string `json:"kind"`
	// Material is the verdict for identification events.
	Material string `json:"material,omitempty"`
	// From is the previously confirmed material on material-swapped.
	From string `json:"from,omitempty"`
	// Confidence is the verdict confidence for identification events.
	Confidence float64 `json:"confidence,omitempty"`
	// Detail carries the error text of stream-down events.
	Detail string `json:"detail,omitempty"`
	// Time is the hub-side wall clock of the event.
	Time time.Time `json:"time"`
}

// New validates the configuration and starts the identification workers and
// the epoch ticker. Stop with Close.
func New(cfg Config) (*Hub, error) {
	if cfg.Identifier == nil {
		return nil, fmt.Errorf("monitorhub: nil identifier")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Monitor.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers < 1 || cfg.PendingPerStream < 1 || cfg.ConfirmVerdicts < 1 || cfg.BatchMax < 1 {
		return nil, fmt.Errorf("monitorhub: non-positive Workers/PendingPerStream/ConfirmVerdicts/BatchMax")
	}
	if cfg.ConfidenceFloor < 0 || cfg.ConfidenceFloor > 1 {
		return nil, fmt.Errorf("monitorhub: ConfidenceFloor %v outside [0,1]", cfg.ConfidenceFloor)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &Hub{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		streams: make(map[string]*stream),
		events:  make([]Event, 0, cfg.EventLog),
	}
	h.qcond = sync.NewCond(&h.qmu)
	for i := 0; i < cfg.Workers; i++ {
		h.workerWG.Add(1)
		go h.worker()
	}
	h.tickerWG.Add(1)
	go h.epochLoop()
	return h, nil
}

// newStream builds and registers the bookkeeping for one stream.
func (h *Hub) newStream(id string) (*stream, error) {
	if id == "" {
		return nil, fmt.Errorf("monitorhub: empty stream id")
	}
	sg, err := monitor.NewSegmenterOpts(h.cfg.Monitor, h.cfg.Carrier, h.cfg.Segment)
	if err != nil {
		return nil, err
	}
	st := &stream{
		id:      id,
		hub:     h,
		sg:      sg,
		pending: make([]*csi.Session, h.cfg.PendingPerStream),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("monitorhub: hub is closed")
	}
	if _, dup := h.streams[id]; dup {
		return nil, fmt.Errorf("monitorhub: stream %q already registered", id)
	}
	h.streams[id] = st
	h.order = append(h.order, st)
	return st, nil
}

// RegisterCollector adds a TCP stream: a transport.Collector (reconnect,
// dedupe, read deadlines, CRC skipping — the existing resilience) dials
// cfg.Addr and feeds every distinct packet into the stream's segmenter. The
// collector is re-run after it exhausts its retry budget or the server ends
// the stream, with redialPause between rounds, until the hub closes — a
// fleet source that goes down for minutes comes back without operator
// action. Collection never retains packets (DiscardDelivered) and, unless
// the caller set one, dedupe memory is bounded to a sliding window.
func (h *Hub) RegisterCollector(id string, ccfg transport.CollectorConfig, redialPause time.Duration) error {
	ccfg.DiscardDelivered = true
	ccfg.MaxPackets = 0 // unbounded live stream
	if ccfg.DedupWindow == 0 {
		ccfg.DedupWindow = 4096
	}
	if redialPause <= 0 {
		redialPause = time.Second
	}
	st, err := h.newStream(id)
	if err != nil {
		return err
	}
	// Validate the collector config once up front so a bad registration
	// fails loudly instead of spinning in the redial loop.
	probe := ccfg
	probe.OnPacket = st.feed
	if _, err := transport.NewCollector(probe); err != nil {
		h.dropStream(id)
		return err
	}
	h.ingestWG.Add(1)
	go h.runCollector(st, ccfg, redialPause)
	return nil
}

// RegisterFeed adds a stream the caller pushes packets into directly: the
// returned function is the stream's synchronous ingest path (per-packet
// detection, segmentation, pending-ring admission). It never blocks on the
// classifier and is safe to call from exactly one goroutine at a time.
// Callers must stop feeding before Close — packets pushed after the drain
// are still segmented but no worker remains to identify them.
func (h *Hub) RegisterFeed(id string) (func(csi.Packet) error, error) {
	st, err := h.newStream(id)
	if err != nil {
		return nil, err
	}
	return st.feed, nil
}

// RegisterSource adds an in-process stream read from src, one packet per
// interval (zero streams as fast as possible). io.EOF ends the stream
// cleanly; any other error marks it down.
func (h *Hub) RegisterSource(id string, src transport.PacketSource, interval time.Duration) error {
	st, err := h.newStream(id)
	if err != nil {
		return err
	}
	h.ingestWG.Add(1)
	go h.runSource(st, src, interval)
	return nil
}

// dropStream removes a stream whose ingest could not start.
func (h *Hub) dropStream(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.streams[id]
	delete(h.streams, id)
	for i, s := range h.order {
		if s == st {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
}

// runCollector drives one TCP stream until the hub closes.
func (h *Hub) runCollector(st *stream, ccfg transport.CollectorConfig, redialPause time.Duration) {
	defer h.ingestWG.Done()
	for h.ctx.Err() == nil {
		col, err := transport.NewCollector(collectorConfigFor(st, ccfg))
		if err != nil {
			st.markDown(err) // cannot happen after the Register probe; be safe
			return
		}
		_, stats, err := col.Run(h.ctx)
		st.addCollectStats(stats)
		if h.ctx.Err() != nil {
			return
		}
		if err != nil {
			st.markDown(err)
		}
		// Clean end of stream or exhausted retries: pause, then start a
		// fresh collection round against the same source.
		select {
		case <-time.After(redialPause):
		case <-h.ctx.Done():
			return
		}
	}
}

// collectorConfigFor wires the stream's delivery callback into a copy of
// the registered collector config.
func collectorConfigFor(st *stream, ccfg transport.CollectorConfig) transport.CollectorConfig {
	ccfg.OnPacket = st.feed
	return ccfg
}

// runSource drives one in-process stream until EOF, error, or hub close.
func (h *Hub) runSource(st *stream, src transport.PacketSource, interval time.Duration) {
	defer h.ingestWG.Done()
	var timer *time.Timer
	if interval > 0 {
		timer = time.NewTimer(interval)
		defer timer.Stop()
	}
	for h.ctx.Err() == nil {
		pkt, err := src.Next()
		if err != nil {
			if !isEOF(err) {
				st.markDown(err)
			}
			return
		}
		if err := st.feed(pkt); err != nil {
			return
		}
		if timer != nil {
			timer.Reset(interval)
			select {
			case <-timer.C:
			case <-h.ctx.Done():
				return
			}
		}
	}
}

// enqueue appends a dirty stream to the worker FIFO. The caller must have
// set st.queued under st.mu; each stream is in the queue at most once, so
// queue length is bounded by the stream count.
func (h *Hub) enqueue(st *stream) {
	h.qmu.Lock()
	if h.qtail == nil {
		h.qhead, h.qtail = st, st
	} else {
		h.qtail.next = st
		h.qtail = st
	}
	h.qcond.Signal()
	h.qmu.Unlock()
}

// popLocked removes the FIFO head, or returns nil when the queue is empty.
// Caller holds h.qmu.
func (h *Hub) popLocked() *stream {
	st := h.qhead
	if st == nil {
		return nil
	}
	h.qhead = st.next
	if h.qhead == nil {
		h.qtail = nil
	}
	st.next = nil
	return st
}

// collectBatch pops up to BatchMax dirty streams into buf, blocking while
// the queue is empty and open, and returns at once with whatever it took:
// a lone stream's verdict never waits on a batch that will not fill. An
// empty return means the queue is closed AND drained — the worker's exit
// signal (drain still runs everything pending, including streams a worker
// re-enqueues after the close).
func (h *Hub) collectBatch(buf []*stream) []*stream {
	h.qmu.Lock()
	defer h.qmu.Unlock()
	for h.qhead == nil && !h.qclosed {
		h.qcond.Wait()
	}
	for len(buf) < h.cfg.BatchMax {
		st := h.popLocked()
		if st == nil {
			break
		}
		buf = append(buf, st)
	}
	return buf
}

// worker drains the dirty-stream queue in cross-stream micro-batches: up to
// BatchMax streams are collected, one pending session popped from each, and
// the whole batch classified in a single core.IdentifyDetailedBatchCachedP
// call (per-capture DSP against the stream's baseline cache + one blocked
// SVM predict). Verdict delivery is per-stream via finish, which also
// returns the session's storage to the segmenter ring and only then clears
// the stream's in-flight claim — a stream stays out of every other worker's
// reach from pop to verdict, so per-stream verdict order is emission order
// at any worker count. Fairness is unchanged: one session per stream per
// batch, streams with more pending work re-enter the FIFO after delivery.
func (h *Hub) worker() {
	defer h.workerWG.Done()
	max := h.cfg.BatchMax
	var (
		batch    = make([]*stream, 0, max)
		live     = make([]*stream, 0, max)
		sessions = make([]*csi.Session, 0, max)
		caches   = make([]*core.BaselineCache, 0, max)
		pls      = make([]*core.Pipeline, 0, max)
		bs       core.BatchScratch
	)
	for {
		batch = h.collectBatch(batch[:0])
		if len(batch) == 0 {
			return
		}
		live, sessions, caches = live[:0], sessions[:0], caches[:0]
		for _, st := range batch {
			st.mu.Lock()
			session := st.popPendingLocked()
			if session == nil {
				// Every pop is preceded by an enqueue with pending work and
				// sessions only leave the ring through a worker or the shed
				// policy, but be defensive: clear the claim so the stream
				// can be re-enqueued.
				st.queued = false
				st.mu.Unlock()
				continue
			}
			st.mu.Unlock()
			if h.cfg.testHold != nil {
				h.cfg.testHold(st.id)
			}
			live = append(live, st)
			sessions = append(sessions, session)
			caches = append(caches, &st.blc)
		}
		if len(live) == 0 {
			continue
		}
		for len(pls) < len(live) {
			pls = append(pls, core.GetPipeline())
		}
		// Inner workers=1: hub workers are the parallelism, one batch per
		// worker; fanning out inside the batch would just contend.
		dets, errs := h.cfg.Identifier.IdentifyDetailedBatchCachedP(&bs, pls[:len(live)], sessions, caches, 1)
		for i, st := range live {
			st.finish(dets[i], errs[i], sessions[i])
		}
		for _, pl := range pls {
			core.PutPipeline(pl)
		}
		pls = pls[:0]
	}
}

// recordEvent appends to the bounded global event ring. The timestamp and
// epoch are captured before taking evmu, keeping the critical section to
// the ring bookkeeping itself.
func (h *Hub) recordEvent(ev Event) {
	ev.Time = time.Now()
	ev.Epoch = h.currentEpoch()
	h.evmu.Lock()
	h.evSeq++
	ev.Seq = h.evSeq
	if len(h.events) < cap(h.events) {
		h.events = append(h.events, ev)
	} else {
		h.events[h.evNext] = ev
		h.evNext = (h.evNext + 1) % cap(h.events)
	}
	h.evTotal++
	h.evmu.Unlock()
}

// eventTail returns up to n newest events, oldest first.
func (h *Hub) eventTail(n int) []Event {
	h.evmu.Lock()
	defer h.evmu.Unlock()
	total := len(h.events)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Event, 0, n)
	// Ring order: evNext is the oldest entry once the ring wrapped.
	start := 0
	if total == cap(h.events) {
		start = h.evNext
	}
	for i := total - n; i < total; i++ {
		out = append(out, h.events[(start+i)%total])
	}
	return out
}

func (h *Hub) currentEpoch() uint64 {
	h.epmu.Lock()
	defer h.epmu.Unlock()
	return h.epoch
}

// epochLoop rolls the fleet aggregates every EpochInterval.
func (h *Hub) epochLoop() {
	defer h.tickerWG.Done()
	t := time.NewTicker(h.cfg.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			h.rollEpoch()
		case <-h.ctx.Done():
			return
		}
	}
}

// rollEpoch closes the current epoch: the delta of the cumulative totals
// since the last roll becomes the epoch's rates snapshot.
func (h *Hub) rollEpoch() {
	now := h.totals()
	h.epmu.Lock()
	h.epoch++
	h.lastEpoch = EpochStats{
		Epoch:         h.epoch - 1,
		Packets:       now.Packets - h.prevTotal.Packets,
		Sessions:      now.Sessions - h.prevTotal.Sessions,
		Identified:    now.Identified - h.prevTotal.Identified,
		Shed:          now.Shed - h.prevTotal.Shed,
		Failed:        now.Failed - h.prevTotal.Failed,
		LowConfidence: now.LowConfidence - h.prevTotal.LowConfidence,
		Degenerate:    now.Degenerate - h.prevTotal.Degenerate,
		Swaps:         now.Swaps - h.prevTotal.Swaps,
		Events:        now.Events - h.prevTotal.Events,
		Interval:      h.cfg.EpochInterval,
	}
	h.prevTotal = now
	h.epmu.Unlock()
}

// Close drains the hub: ingest stops (collector contexts cancelled, source
// pumps unblocked), every already-pending session still runs through the
// workers, and Close returns once the pool has exited. Safe to call twice.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		// Still wait: a concurrent Close should not return early.
		h.ingestWG.Wait()
		h.workerWG.Wait()
		h.tickerWG.Wait()
		return
	}
	h.closed = true
	h.mu.Unlock()

	h.cancel()
	h.ingestWG.Wait()

	h.qmu.Lock()
	h.qclosed = true
	h.qcond.Broadcast()
	h.qmu.Unlock()
	h.workerWG.Wait()
	h.tickerWG.Wait()
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF)
}
