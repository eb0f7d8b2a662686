package monitorhub

import (
	"sync"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/monitor"
	"repro/internal/transport"
)

// stream is the hub's bookkeeping for one monitored CSI source: its
// segmenter, the bounded ring of sessions awaiting identification, the
// verdict-hysteresis state, and cumulative counters. All mutable state —
// including the segmenter, whose accessors the fleet snapshot reads
// concurrently with ingest — is guarded by mu.
type stream struct {
	id  string
	hub *Hub
	sg  *monitor.Segmenter

	mu sync.Mutex

	// pending is a fixed-capacity ring of sessions awaiting a worker.
	// pendHead indexes the oldest entry; pushing onto a full ring
	// overwrites (sheds) that oldest entry — freshness beats completeness
	// for a live monitor, and ingest never blocks on the classifier.
	pending  []pendingSession
	pendHead int
	pendLen  int

	// appearance counts the stream's ended appearances (TargetRemoved
	// events). Every pending session carries the count at its emission, so
	// a verdict that lands after its vessel was removed is recognised as
	// stale.
	appearance uint64

	// queued is true while the stream sits in the hub's dirty FIFO OR has a
	// session in flight on a worker (the in-flight claim): it is enqueued at
	// most once, whatever its pending depth, and no second worker can pop
	// from it until finish clears the claim — per-stream verdicts stay in
	// emission order at any worker count.
	queued bool
	next   *stream // intrusive dirty-FIFO link, guarded by hub.qmu

	// blc caches the baseline-side DSP of the stream's current appearance.
	// Touched only by the worker holding this stream's in-flight session;
	// the claim serializes access, and the enqueue/pop lock chain orders
	// one worker's writes before the next worker's reads.
	blc core.BaselineCache

	// Hysteresis state. confirmed is the material the hub currently
	// believes is in the vessel; a differing confident verdict must repeat
	// ConfirmVerdicts times in a row (candidate/candidateRun) before the
	// hub declares a swap.
	confirmed    string
	lastMaterial string
	lastConf     float64
	candidate    string
	candidateRun int

	// Cumulative counters (monotonic; epochs diff them).
	packets    uint64
	sessions   uint64
	identified uint64
	shed       uint64
	failed     uint64
	lowConf    uint64
	swaps      uint64
	reconnects uint64
	dupes      uint64
	crcSkipped uint64

	down    bool
	lastErr string
}

// pendingSession is one session awaiting identification, tagged with the
// stream's appearance count when the segmenter emitted it.
type pendingSession struct {
	session    *csi.Session
	appearance uint64
}

// feed pushes one delivered packet through the stream's segmenter and, when
// a session completes, into the pending ring. It is the OnPacket callback of
// the stream's collector (and the source pump's delivery path): it must be
// fast and must never block.
func (st *stream) feed(pkt csi.Packet) error {
	var emits []Event
	mustQueue := false

	st.mu.Lock()
	session, ev, err := st.sg.Feed(pkt)
	st.packets++
	if st.down {
		st.down = false
		st.lastErr = ""
		emits = append(emits, Event{Stream: st.id, Kind: "stream-up"})
	}
	// err means a degenerate packet (zero power): the detector already
	// counted it and the stream carries on.
	if err == nil && ev != nil {
		switch ev.Kind {
		case monitor.TargetAppeared:
			emits = append(emits, Event{Stream: st.id, Kind: "target-appeared"})
		case monitor.TargetRemoved:
			st.appearance++
			st.confirmed = ""
			st.candidate = ""
			st.candidateRun = 0
			emits = append(emits, Event{Stream: st.id, Kind: "vessel-removed"})
		}
	}
	if session != nil {
		st.sessions++
		n := len(st.pending)
		if st.pendLen == n {
			// Shed the OLDEST pending session: advance the head over it so
			// the newest work survives. Its storage goes straight back to
			// the segmenter ring (st.mu is the ring's lock).
			shed := st.pending[st.pendHead].session
			st.pending[st.pendHead] = pendingSession{}
			st.pendHead = (st.pendHead + 1) % n
			st.pendLen--
			st.shed++
			shed.Release()
		}
		st.pending[(st.pendHead+st.pendLen)%n] = pendingSession{session, st.appearance}
		st.pendLen++
		if !st.queued {
			st.queued = true
			mustQueue = true
		}
	}
	st.mu.Unlock()

	for _, e := range emits {
		st.hub.recordEvent(e)
	}
	if mustQueue {
		st.hub.enqueue(st)
	}
	return nil
}

// popPendingLocked removes and returns the oldest pending session with its
// appearance tag, or a nil session. Caller holds st.mu.
func (st *stream) popPendingLocked() (*csi.Session, uint64) {
	if st.pendLen == 0 {
		return nil, 0
	}
	p := st.pending[st.pendHead]
	st.pending[st.pendHead] = pendingSession{}
	st.pendHead = (st.pendHead + 1) % len(st.pending)
	st.pendLen--
	return p.session, p.appearance
}

// finish delivers one identification result: the hysteresis fold and events
// via verdict, then — under st.mu, which is also the segmenter ring's lock —
// the session's storage returns to the ring and the stream re-enters the
// dirty FIFO if more sessions are pending. Only here does the in-flight
// claim (queued) clear, so one stream's sessions are identified strictly in
// emission order whatever the worker count.
func (st *stream) finish(det core.Detail, err error, session *csi.Session, appearance uint64) {
	st.verdict(det.Material, det.Confidence, err, appearance)
	if st.hub.cfg.testVerdict != nil {
		st.hub.cfg.testVerdict(st.id, det, err)
	}
	st.mu.Lock()
	session.Release()
	more := st.pendLen > 0
	st.queued = more
	st.mu.Unlock()
	if more {
		st.hub.enqueue(st)
	}
}

// verdict folds one identification result into the stream's hysteresis
// machine and emits material-identified / material-swapped events. A
// verdict on a session of an appearance that has since ended moves only the
// counters: it describes a vessel that is gone, so it may not set the last
// verdict, confirm a material or build toward a swap.
func (st *stream) verdict(label string, conf float64, err error, appearance uint64) {
	var emit *Event

	st.mu.Lock()
	switch {
	case err != nil:
		st.failed++
	case appearance != st.appearance:
		st.identified++
		if conf < st.hub.cfg.ConfidenceFloor {
			st.lowConf++
		}
	case conf < st.hub.cfg.ConfidenceFloor:
		// Recorded for /v1/fleet, but too weak to move the state machine.
		st.identified++
		st.lowConf++
		st.lastMaterial, st.lastConf = label, conf
	default:
		st.identified++
		st.lastMaterial, st.lastConf = label, conf
		switch {
		case st.confirmed == "":
			// First confident verdict of this appearance.
			st.confirmed = label
			st.candidate, st.candidateRun = "", 0
			emit = &Event{Stream: st.id, Kind: "material-identified", Material: label, Confidence: conf}
		case label == st.confirmed:
			// Agreement: any half-built swap case collapses.
			st.candidate, st.candidateRun = "", 0
		case label == st.candidate:
			st.candidateRun++
			if st.candidateRun >= st.hub.cfg.ConfirmVerdicts {
				from := st.confirmed
				st.confirmed = label
				st.candidate, st.candidateRun = "", 0
				st.swaps++
				emit = &Event{Stream: st.id, Kind: "material-swapped", Material: label, From: from, Confidence: conf}
			}
		default:
			// A new disagreeing material starts its own run.
			st.candidate, st.candidateRun = label, 1
		}
	}
	st.mu.Unlock()

	if emit != nil {
		st.hub.recordEvent(*emit)
	}
}

// markDown flags the stream as down and logs the failure once.
func (st *stream) markDown(err error) {
	st.mu.Lock()
	already := st.down
	st.down = true
	st.lastErr = err.Error()
	st.mu.Unlock()
	if !already {
		st.hub.recordEvent(Event{Stream: st.id, Kind: "stream-down", Detail: err.Error()})
	}
}

// addCollectStats folds one collection round's link-level damage report into
// the stream counters.
func (st *stream) addCollectStats(cs transport.CollectStats) {
	st.mu.Lock()
	st.reconnects += uint64(cs.Reconnects)
	st.dupes += uint64(cs.Duplicates)
	st.crcSkipped += uint64(cs.CRCSkipped)
	st.mu.Unlock()
}

// StreamState is one stream's row in the fleet snapshot.
type StreamState struct {
	ID    string `json:"id"`
	State string `json:"state"` // learning | quiet | target-present | down

	Confirmed      string  `json:"confirmed,omitempty"`
	LastMaterial   string  `json:"last_material,omitempty"`
	LastConfidence float64 `json:"last_confidence,omitempty"`
	Candidate      string  `json:"candidate,omitempty"`
	CandidateRun   int     `json:"candidate_run,omitempty"`

	Packets     uint64 `json:"packets"`
	Sessions    uint64 `json:"sessions"`
	Pending     int    `json:"pending"`
	Identified  uint64 `json:"identified"`
	Shed        uint64 `json:"shed"`
	Failed      uint64 `json:"failed,omitempty"`
	LowConf     uint64 `json:"low_confidence,omitempty"`
	Swaps       uint64 `json:"swaps,omitempty"`
	Degenerate  uint64 `json:"degenerate,omitempty"`
	Rebaselines uint64 `json:"rebaselines,omitempty"`
	Reconnects  uint64 `json:"reconnects,omitempty"`
	Duplicates  uint64 `json:"duplicates,omitempty"`
	CRCSkipped  uint64 `json:"crc_skipped,omitempty"`

	LastError string `json:"last_error,omitempty"`
}

// snapshot captures the stream's externally visible state under st.mu (the
// segmenter is mu-guarded too — ingest feeds it under the same lock).
func (st *stream) snapshot() StreamState {
	st.mu.Lock()
	s := StreamState{
		ID:             st.id,
		Confirmed:      st.confirmed,
		LastMaterial:   st.lastMaterial,
		LastConfidence: st.lastConf,
		Candidate:      st.candidate,
		CandidateRun:   st.candidateRun,
		Packets:        st.packets,
		Sessions:       st.sessions,
		Pending:        st.pendLen,
		Identified:     st.identified,
		Shed:           st.shed,
		Failed:         st.failed,
		LowConf:        st.lowConf,
		Swaps:          st.swaps,
		Reconnects:     st.reconnects,
		Duplicates:     st.dupes,
		CRCSkipped:     st.crcSkipped,
		LastError:      st.lastErr,
	}
	s.Degenerate = uint64(st.sg.Degenerate())
	s.Rebaselines = uint64(st.sg.Rebaselines())
	switch {
	case st.down:
		s.State = "down"
	case !st.sg.Ready():
		s.State = "learning"
	case st.sg.TargetPresent():
		s.State = "target-present"
	default:
		s.State = "quiet"
	}
	st.mu.Unlock()
	return s
}
