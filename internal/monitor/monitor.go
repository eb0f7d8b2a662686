// Package monitor watches a continuous CSI stream and detects when a target
// appears on (or leaves) the line of sight — the missing piece between the
// paper's manual "capture baseline, pour liquid, capture again" procedure
// and its Fig. 1 vision of a phone passively sensing materials.
//
// Detection is a two-sided CUSUM changepoint statistic on the per-packet
// mean log-amplitude: inserting a lossy target shifts the received level,
// and CUSUM accumulates small persistent shifts while ignoring the
// impulse/outlier noise the hardware injects (the statistic feeds on a
// robustly standardised score).
package monitor

import (
	"fmt"
	"math"

	"repro/internal/csi"
	"repro/internal/mathx"
)

// EventKind classifies a detected change.
type EventKind int

// Detected event kinds.
const (
	// TargetAppeared fires when the stream departs from the quiescent
	// baseline level.
	TargetAppeared EventKind = iota + 1
	// TargetRemoved fires when the stream returns to the baseline level.
	TargetRemoved
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case TargetAppeared:
		return "target-appeared"
	case TargetRemoved:
		return "target-removed"
	default:
		return "unknown"
	}
}

// Event is one detected change.
type Event struct {
	Kind EventKind
	// PacketIndex is the 0-based index (in feed order) of the packet that
	// triggered the decision.
	PacketIndex int
}

// Config parameterises the detector. The zero value selects the defaults.
type Config struct {
	// BaselinePackets establishes the quiescent level before detection
	// starts. Zero selects 20 (the paper's capture length).
	BaselinePackets int
	// Threshold is the CUSUM alarm level in robust-sigma units. Zero
	// selects 10.
	Threshold float64
	// Slack is the CUSUM drift allowance per packet in sigma units
	// (changes smaller than this never alarm). Zero selects 0.5.
	Slack float64
	// QuietPackets is how many consecutive near-baseline packets signal the
	// target's removal. Zero selects 8.
	QuietPackets int
	// RebaselineAfter, when positive, enables slow quiescent re-baselining:
	// after this many consecutive quiet packets (|z| < 3 while watching) the
	// baseline level is re-learned from the most recent quiet window and
	// blended into μ/σ, so a long-lived stream survives receiver gain drift
	// without a process restart. Must be ≥ BaselinePackets (the re-learn
	// window). Zero disables — detection is then bit-identical to the
	// pre-knob behaviour.
	RebaselineAfter int
	// RebaselineBlend is the EWMA weight of each re-learned level, in (0,1];
	// small values drift slowly. Zero selects 0.25. Ignored while
	// RebaselineAfter is zero.
	RebaselineBlend float64
}

func (c Config) withDefaults() Config {
	if c.BaselinePackets == 0 {
		c.BaselinePackets = 20
	}
	if c.Threshold == 0 {
		c.Threshold = 10
	}
	if c.Slack == 0 {
		c.Slack = 0.5
	}
	if c.QuietPackets == 0 {
		c.QuietPackets = 8
	}
	if c.RebaselineAfter > 0 && c.RebaselineBlend == 0 {
		c.RebaselineBlend = 0.25
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	c0 := c.withDefaults()
	switch {
	case c0.BaselinePackets < 4:
		return fmt.Errorf("monitor: need at least 4 baseline packets, got %d", c0.BaselinePackets)
	case c0.Threshold <= 0:
		return fmt.Errorf("monitor: threshold must be positive, got %v", c0.Threshold)
	case c0.Slack < 0:
		return fmt.Errorf("monitor: negative slack %v", c0.Slack)
	case c0.QuietPackets < 1:
		return fmt.Errorf("monitor: QuietPackets must be ≥ 1, got %d", c0.QuietPackets)
	case c0.RebaselineAfter < 0:
		return fmt.Errorf("monitor: negative RebaselineAfter %d", c0.RebaselineAfter)
	case c0.RebaselineAfter > 0 && c0.RebaselineAfter < c0.BaselinePackets:
		return fmt.Errorf("monitor: RebaselineAfter %d below the %d-packet re-learn window",
			c0.RebaselineAfter, c0.BaselinePackets)
	case c0.RebaselineBlend < 0 || c0.RebaselineBlend > 1:
		return fmt.Errorf("monitor: RebaselineBlend %v outside (0,1]", c0.RebaselineBlend)
	}
	return nil
}

// state is the detector's phase.
type state int

const (
	stateLearning state = iota + 1
	stateWatching
	stateTargetPresent
)

// Detector consumes packets one at a time and emits events.
type Detector struct {
	cfg   Config
	st    state
	count int

	// Baseline statistics (learned).
	learnBuf []float64
	mu, sig  float64

	// CUSUM accumulators.
	upSum, downSum float64

	quietRun int

	// Quiescent re-baselining state (Config.RebaselineAfter > 0): a ring of
	// the newest quiet statistics and the length of the current quiet run.
	rbBuf   []float64
	rbNext  int
	rbFill  int
	rbQuiet int
	// rebaselines counts completed drift re-learns, for operator stats.
	rebaselines int

	// degenerate counts skipped packets with no usable amplitude (all-zero
	// CSI from a dead stretch, zeroed faults, or a corrupt record) — the
	// detector must ride these out, not abort a live monitoring loop.
	degenerate int
}

// NewDetector builds a detector.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg.withDefaults(), st: stateLearning}, nil
}

// statistic reduces one packet to the detection scalar: the mean
// log-amplitude over all antennas and subcarriers. The log makes the common
// receiver gain additive and target attenuation a level shift.
func statistic(m *csi.Matrix) float64 {
	var sum float64
	n := 0
	for _, row := range m.Values {
		for _, v := range row {
			a := math.Hypot(real(v), imag(v))
			if a > 0 {
				sum += math.Log(a)
				n++
			}
		}
	}
	if n == 0 {
		return math.Inf(-1)
	}
	return sum / float64(n)
}

// Feed processes one packet. It returns a non-nil event when a change is
// detected, and nil otherwise.
func (d *Detector) Feed(pkt csi.Packet) (*Event, error) {
	if pkt.CSI == nil {
		return nil, fmt.Errorf("monitor: packet %d has nil CSI", pkt.Seq)
	}
	idx := d.count
	d.count++
	x := statistic(pkt.CSI)
	if math.IsInf(x, 0) || math.IsNaN(x) {
		// Skip-and-count: an all-zero packet carries no level information,
		// and a fault-injected or real dropout must not kill the monitor.
		d.degenerate++
		return nil, nil
	}
	switch d.st {
	case stateLearning:
		d.learnBuf = append(d.learnBuf, x)
		if len(d.learnBuf) >= d.cfg.BaselinePackets {
			d.mu, d.sig = mathx.MedianAndMADStdDev(d.learnBuf)
			if d.sig < 1e-6 {
				d.sig = 1e-6
			}
			d.st = stateWatching
			d.learnBuf = nil
		}
		return nil, nil
	case stateWatching:
		z := (x - d.mu) / d.sig
		d.upSum = math.Max(0, d.upSum+z-d.cfg.Slack)
		d.downSum = math.Max(0, d.downSum-z-d.cfg.Slack)
		if d.upSum > d.cfg.Threshold || d.downSum > d.cfg.Threshold {
			d.st = stateTargetPresent
			d.upSum, d.downSum = 0, 0
			d.quietRun = 0
			d.rbQuiet, d.rbFill, d.rbNext = 0, 0, 0
			return &Event{Kind: TargetAppeared, PacketIndex: idx}, nil
		}
		d.maybeRebaseline(x, z)
		return nil, nil
	case stateTargetPresent:
		z := (x - d.mu) / d.sig
		if math.Abs(z) < 3 {
			d.quietRun++
			if d.quietRun >= d.cfg.QuietPackets {
				d.st = stateWatching
				d.quietRun = 0
				return &Event{Kind: TargetRemoved, PacketIndex: idx}, nil
			}
		} else {
			d.quietRun = 0
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("monitor: detector in invalid state %d", d.st)
	}
}

// maybeRebaseline folds one watching-state statistic into the quiescent
// drift re-learn. Only packets within 3σ of the current baseline feed the
// window, and a single loud packet restarts the quiet run — re-learning must
// see a contiguous quiescent stretch, never a target's shoulder.
func (d *Detector) maybeRebaseline(x, z float64) {
	if d.cfg.RebaselineAfter <= 0 {
		return
	}
	if math.Abs(z) >= 3 {
		d.rbQuiet, d.rbFill, d.rbNext = 0, 0, 0
		return
	}
	if d.rbBuf == nil {
		d.rbBuf = make([]float64, d.cfg.BaselinePackets)
	}
	d.rbBuf[d.rbNext] = x
	d.rbNext = (d.rbNext + 1) % len(d.rbBuf)
	if d.rbFill < len(d.rbBuf) {
		d.rbFill++
	}
	d.rbQuiet++
	if d.rbQuiet < d.cfg.RebaselineAfter || d.rbFill < len(d.rbBuf) {
		return
	}
	// Blend the freshly-learned level into the baseline. Slowly: the EWMA
	// weight keeps one noisy window from yanking the reference, while a
	// genuine gain step is absorbed over a few re-learns.
	mu2, sig2 := mathx.MedianAndMADStdDev(d.rbBuf)
	if sig2 < 1e-6 {
		sig2 = 1e-6
	}
	a := d.cfg.RebaselineBlend
	d.mu += a * (mu2 - d.mu)
	d.sig += a * (sig2 - d.sig)
	if d.sig < 1e-6 {
		d.sig = 1e-6
	}
	// The CUSUM accumulators measured drift against the old level; restart
	// them so stale accumulation cannot alarm against the new one.
	d.upSum, d.downSum = 0, 0
	d.rbQuiet = 0
	d.rebaselines++
}

// Reset returns the detector to the learning state so the baseline is
// re-learned from scratch — the hard variant of re-baselining, for operators
// who know the environment changed (hardware swap, room re-arranged). The
// packet-index clock and the degenerate counter carry on; everything else
// (baseline, CUSUM accumulators, quiet runs) is discarded.
func (d *Detector) Reset() {
	d.st = stateLearning
	d.learnBuf = d.learnBuf[:0]
	d.mu, d.sig = 0, 0
	d.upSum, d.downSum = 0, 0
	d.quietRun = 0
	d.rbQuiet, d.rbFill, d.rbNext = 0, 0, 0
}

// Rebaselines reports how many quiescent drift re-learns have completed.
func (d *Detector) Rebaselines() int { return d.rebaselines }

// Ready reports whether the baseline has been learned.
func (d *Detector) Ready() bool { return d.st != stateLearning }

// Degenerate reports how many packets were skipped for carrying no usable
// amplitude (all-zero CSI).
func (d *Detector) Degenerate() int { return d.degenerate }

// TargetPresent reports whether the detector currently believes a target is
// on the link.
func (d *Detector) TargetPresent() bool { return d.st == stateTargetPresent }

// Segmenter assembles identification-ready sessions from a continuous
// stream: it buffers baseline packets while the link is quiet, and on a
// TargetAppeared→TargetRemoved (or appeared + enough packets) cycle emits a
// csi.Session pairing the pre-appearance baseline with the during-target
// packets.
type Segmenter struct {
	det     *Detector
	carrier float64
	// settle discards this many packets right after appearance (the paper
	// waits "a few seconds" for the liquid to stabilise).
	settle int
	// targetLen is how many target packets build a session.
	targetLen int
	// stride, when positive, keeps the segmenter live after the first
	// session of an appearance: every stride further target packets it
	// emits another session over the newest targetLen packets (a sliding
	// window against the same frozen baseline), until the target leaves.
	// Zero keeps the historical one-session-per-appearance behaviour.
	stride int

	quiet    []csi.Packet // rolling window of recent quiet packets
	quietCap int
	// guard is how many of the newest quiet packets are dropped when the
	// baseline freezes: CUSUM detection has a few packets of latency, so
	// the newest "quiet" packets may already contain the target.
	guard int
	// ring holds the live target window in refcounted blocks; emitted
	// sessions alias it (zero-copy sliding windows) and hand storage back
	// via csi.Session.Release.
	ring      *csi.PacketRing
	baseline  []csi.Packet // frozen at appearance, shared by every session of it
	skipped   int
	active    bool
	emitted   bool // a session has been emitted for the current appearance
	sinceEmit int  // target packets accumulated since the last emission
}

// SegmenterOptions shapes the sessions a Segmenter carves out of the stream.
type SegmenterOptions struct {
	// Settle packets are discarded right after the target appears.
	Settle int
	// TargetLen is how many target packets build each session.
	TargetLen int
	// BaselineLen recent quiet packets are paired as the session baseline.
	BaselineLen int
	// Stride, when positive, enables sliding-window sessions: after the
	// first session of an appearance, a fresh session over the newest
	// TargetLen packets is emitted every Stride packets until the target
	// leaves — the continuous re-identification a long-lived monitor needs
	// to notice the vessel's content being swapped. Zero emits one session
	// per appearance (the historical behaviour).
	Stride int
}

// NewSegmenter builds a segmenter. settle packets are discarded after the
// target appears; targetLen packets are then collected per session;
// baselineLen recent quiet packets are paired as the baseline.
func NewSegmenter(cfg Config, carrier float64, settle, targetLen, baselineLen int) (*Segmenter, error) {
	return NewSegmenterOpts(cfg, carrier, SegmenterOptions{
		Settle: settle, TargetLen: targetLen, BaselineLen: baselineLen,
	})
}

// NewSegmenterOpts builds a segmenter from explicit options, including the
// sliding-window stride NewSegmenter's fixed signature predates.
func NewSegmenterOpts(cfg Config, carrier float64, opts SegmenterOptions) (*Segmenter, error) {
	if err := csi.CheckCarrier(carrier); err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	if opts.Settle < 0 || opts.TargetLen < 1 || opts.BaselineLen < 1 || opts.Stride < 0 {
		return nil, fmt.Errorf("monitor: invalid segmenter lengths settle=%d target=%d baseline=%d stride=%d",
			opts.Settle, opts.TargetLen, opts.BaselineLen, opts.Stride)
	}
	det, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	const detectionGuard = 10
	ring, err := csi.NewPacketRing(opts.TargetLen)
	if err != nil {
		return nil, err
	}
	return &Segmenter{
		det:       det,
		carrier:   carrier,
		settle:    opts.Settle,
		targetLen: opts.TargetLen,
		stride:    opts.Stride,
		guard:     detectionGuard,
		quietCap:  opts.BaselineLen + detectionGuard,
		ring:      ring,
	}, nil
}

// Feed processes one packet and returns a complete session once enough
// target packets have been observed after an appearance.
//
// Aliasing contract: emitted sessions are zero-copy. The target window
// aliases a refcounted block of the segmenter's csi.PacketRing, and the
// baseline is ONE frozen read-only slice shared by every session of the
// appearance — a stride emission costs O(Stride) new packet storage, not
// O(TargetLen+BaselineLen). A session stays valid until its
// csi.Session.Release, which recycles the target block; callers that never
// Release (one-shot monitors) just leave the storage to the GC. Feed,
// Release, and every other segmenter method must be serialized by the
// caller (the hub uses its per-stream mutex); session *reads* need no lock
// once the session has been handed over.
func (sg *Segmenter) Feed(pkt csi.Packet) (*csi.Session, *Event, error) {
	ev, err := sg.det.Feed(pkt)
	if err != nil {
		return nil, nil, err
	}
	if ev != nil && ev.Kind == TargetAppeared {
		// Freeze the baseline window, discarding the newest guard packets
		// (they were fed before the detector caught up and may already
		// contain the target). One fresh private copy per appearance; every
		// session of the appearance shares it.
		frozen := sg.quiet
		if len(frozen) > sg.guard {
			frozen = frozen[:len(frozen)-sg.guard]
		}
		sg.baseline = append([]csi.Packet(nil), frozen...)
		sg.ring.DropWindow()
		sg.skipped = 0
		sg.active = true
		sg.emitted = false
		sg.sinceEmit = 0
	}
	if ev != nil && ev.Kind == TargetRemoved {
		sg.active = false
		sg.ring.DropWindow()
	}
	if sg.active && sg.det.TargetPresent() {
		if sg.skipped < sg.settle {
			sg.skipped++
			return nil, ev, nil
		}
		sg.ring.Push(pkt)
		if sg.stride > 0 {
			// Sliding window: keep only the newest targetLen packets.
			sg.ring.TrimTo(sg.targetLen)
		}
		if sg.ring.Len() >= sg.targetLen && len(sg.baseline) > 0 {
			emit := !sg.emitted
			if sg.emitted && sg.stride > 0 {
				sg.sinceEmit++
				emit = sg.sinceEmit >= sg.stride
			}
			if emit {
				session := sg.ring.Emit(sg.carrier, sg.baseline)
				sg.emitted = true
				sg.sinceEmit = 0
				if sg.stride == 0 {
					sg.active = false // one session per appearance
				}
				return session, ev, nil
			}
		}
		return nil, ev, nil
	}
	if !sg.det.TargetPresent() {
		sg.quiet = append(sg.quiet, pkt)
		if len(sg.quiet) > sg.quietCap {
			sg.quiet = sg.quiet[len(sg.quiet)-sg.quietCap:]
		}
	}
	return nil, ev, nil
}

// Ready reports whether the underlying detector has learned its baseline.
func (sg *Segmenter) Ready() bool { return sg.det.Ready() }

// TargetPresent reports whether the underlying detector currently believes
// a target is on the link.
func (sg *Segmenter) TargetPresent() bool { return sg.det.TargetPresent() }

// Degenerate reports how many packets the underlying detector skipped for
// carrying no usable amplitude — the counter fleet operators watch for dead
// stretches that would otherwise be invisible.
func (sg *Segmenter) Degenerate() int { return sg.det.Degenerate() }

// Rebaselines reports how many quiescent drift re-learns the underlying
// detector has completed.
func (sg *Segmenter) Rebaselines() int { return sg.det.Rebaselines() }

// Reset re-learns the environment from scratch: the detector returns to the
// learning state and every buffered packet window is discarded.
func (sg *Segmenter) Reset() {
	sg.det.Reset()
	sg.quiet = sg.quiet[:0]
	sg.ring.DropWindow()
	sg.baseline = nil
	sg.skipped = 0
	sg.active = false
	sg.emitted = false
	sg.sinceEmit = 0
}
