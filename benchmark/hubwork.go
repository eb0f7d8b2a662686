package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/csi"
	"repro/internal/monitor"
	"repro/internal/monitorhub"
	"repro/internal/registry"
	"repro/wimi"
)

// hubParams describes the fleet workload.
type hubParams struct {
	streams   int
	quiet     int           // quiet packets per template pass
	target    int           // target packets per template pass
	interval  time.Duration // per-stream packet interval
	pollEvery time.Duration // Snapshot cadence
	pollTail  int           // events per Snapshot
}

func (p hubParams) describe() map[string]any {
	return map[string]any{
		"streams": p.streams, "quiet_packets": p.quiet, "target_packets": p.target,
		"interval_ms": p.interval.Seconds() * 1e3, "stagger_s": p.pass().Seconds(),
		"poll_every_ms": p.pollEvery.Seconds() * 1e3, "poll_events": p.pollTail,
		"liquids": hubLiquids, "setup_launches": setupLaunches,
	}
}

// feedQuantum is the shortest sleep of the hub feeder: it wakes at most once
// per quantum and feeds everything due, each packet at most that much late.
// Packets fall due every 39µs on average across 256 streams. Waking for each
// would cost more than feeding, and a feeder waking every 250µs preempted the
// identification workers so often that the hub's latency followed the
// scheduler: its p90 spread over ten runs was 25% against 8% at 1ms.
const feedQuantum = time.Millisecond

// freezeGap is the lateness at which the hub feeder takes itself to have been
// frozen with the rest of the shared guest, and moves the rest of its schedule
// by the lateness instead of feeding what fell due in one burst. After a
// freeze of the whole process a burst would feed each stream's next packets
// back to back while the workers had yet to classify the sessions before
// them: with freezes of 150ms every 2s, removals overtook the verdicts of the
// appearances' last sessions and 55 events went wrong or missing in one run
// (the hub resets a stream's verdict state when it is fed the removal).
// Freezes of the host are not the hub's doing, so the workload keeps each
// stream's packet spacing through them; the lateness is still counted as
// lag, and a feeder too slow for its schedule still moves the median lag.
// Shorter delays, 5-15ms many times a second on a busy host and partly the
// hub's own use of the CPUs, are still fed in a burst: a burst of 20ms of
// packets stays well inside the 80ms removal margin.
const freezeGap = 20 * time.Millisecond

// pass is one loop of a template; stream start times are spread over one.
func (p hubParams) pass() time.Duration { return time.Duration(p.quiet+p.target) * p.interval }

// hubLiquids are the template liquids. The fixture's third liquid, oil,
// contrasts too weakly with the empty link for the change-point detector.
var hubLiquids = []string{wimi.PureWater, wimi.Honey}

// The hub's segmentation as the workload configures it. Settle, TargetLen,
// BaselineLen and the carrier are monitorhub's defaults; the shadow
// segmenter has to know them to find the sessions the hub will emit.
var (
	hubMonitor         = monitor.Config{BaselinePackets: 30}
	hubSegment         = monitor.SegmenterOptions{Stride: 10}
	shadowOpts         = monitor.SegmenterOptions{Settle: 5, TargetLen: 20, BaselineLen: 20, Stride: 10}
	hubCarrier         = 5.32e9
	hubConfidenceFloor = 0.5 // monitorhub's default ConfidenceFloor
	hubConfirmVerdicts = 2   // monitorhub's default ConfirmVerdicts

	// removalMargin is how many packets (80ms) a template's last session of
	// an appearance must precede the removal's detection by.
	removalMargin = 8
)

// appearance is one target appearance on a template stream.
type appearance struct {
	k        int           // stream packet index whose feed completes the appearance's first session
	material string        // the oracle's verdict on that session
	session  *wimi.Session // a copy of that session, replayed by the traced run
}

// hubTemplate is one liquid's looped packet stream. Every stream of a
// template starts at its first packet, so all of them segment identically:
// the shadow segmenter's appearances hold for each.
type hubTemplate struct {
	liquid  string
	packets []csi.Packet
	apps    []appearance
	appAt   map[int]int // packet index → appearance index
}

// buildTemplate simulates a quiet→target pass of liquid and feeds length
// looped packets of it through a shadow segmenter configured like the hub's,
// computing the oracle's verdict for every session it emits. It tries
// simulation seeds derived from the run seed until the oracle predicts the
// hub's events exactly: one appearance per pass, whose first session is
// confident and of the template's liquid, so that session fires the
// appearance's material-identified event, and never two confident
// disagreeing verdicts in a row, so nothing swaps.
func buildTemplate(fx *fixture, seed int64, liquid string, p hubParams, length int) (*hubTemplate, error) {
	// About one simulation in eight qualifies; 256 tries fail with
	// probability under 1e-14 and take under 2s at worst.
	const attempts = 256
	for attempt := 0; attempt < attempts; attempt++ {
		sc := wimi.DefaultScenario()
		sc.Liquid = wimi.MustLiquid(liquid)
		sc.Packets = max(p.quiet, p.target)
		s, err := wimi.Simulate(sc, subSeed(seed, "hub/"+liquid, attempt))
		if err != nil {
			return nil, err
		}
		pkts := append(append([]csi.Packet(nil), s.Baseline.Packets[:p.quiet]...), s.Target.Packets[:p.target]...)
		t, err := shadowSegment(fx, liquid, pkts, length)
		if err != nil {
			return nil, err
		}
		if t != nil {
			return t, nil
		}
	}
	return nil, fmt.Errorf("no %s template of %d tried segments cleanly", liquid, attempts)
}

// shadowSegment returns the template with its appearances, or nil when the
// stream does not segment cleanly.
func shadowSegment(fx *fixture, liquid string, pkts []csi.Packet, length int) (*hubTemplate, error) {
	sg, err := monitor.NewSegmenterOpts(hubMonitor, hubCarrier, shadowOpts)
	if err != nil {
		return nil, err
	}
	t := &hubTemplate{liquid: liquid, packets: pkts, appAt: map[int]int{}}
	first := false
	disagreeing := 0 // consecutive confident verdicts other than the liquid
	lastSession := 0
	for k := 0; k < length; k++ {
		s, ev, err := sg.Feed(pkts[k%len(pkts)])
		if err != nil {
			return nil, nil
		}
		if ev != nil && ev.Kind == monitor.TargetAppeared {
			first, disagreeing = true, 0
		}
		// The removal resets the stream's verdict state as it is fed, while
		// a session is classified later: a verdict landing after the removal
		// would fire a material-identified of its own. Sessions must end
		// well before the vessel goes.
		if ev != nil && ev.Kind == monitor.TargetRemoved && k-lastSession < removalMargin {
			return nil, nil
		}
		if s == nil {
			continue
		}
		lastSession = k
		det, err := fx.id.IdentifyDetailed(s)
		confident := det.Confidence >= hubConfidenceFloor
		switch {
		case err != nil:
			return nil, nil
		case first && (det.Material != liquid || !confident):
			return nil, nil
		case first:
			t.appAt[k] = len(t.apps)
			t.apps = append(t.apps, appearance{k: k, material: det.Material, session: cloneSession(s)})
			first = false
		case confident && det.Material != liquid:
			// The hub's hysteresis ignores one misread window; a second
			// in a row would swap.
			if disagreeing++; disagreeing >= hubConfirmVerdicts {
				return nil, nil
			}
		case confident:
			disagreeing = 0
		}
	}
	for n, a := range t.apps {
		if a.k != t.apps[0].k+n*len(pkts) {
			return nil, nil
		}
	}
	if len(t.apps) == 0 || t.apps[len(t.apps)-1].k+len(pkts) < length {
		return nil, nil
	}
	return t, nil
}

// cloneSession copies a segmenter session out of the segmenter's ring.
func cloneSession(s *wimi.Session) *wimi.Session {
	return &wimi.Session{
		Carrier:  s.Carrier,
		Baseline: wimi.Capture{Packets: slices.Clone(s.Baseline.Packets)},
		Target:   wimi.Capture{Packets: slices.Clone(s.Target.Packets)},
	}
}

func streamID(i int) string { return fmt.Sprintf("s%03d", i) }

// hubLaunch is one cold start of the hub: registry, hub and every feed.
func hubLaunch(model string, streams, eventLog int) (*monitorhub.Hub, []func(csi.Packet) error, time.Duration, error) {
	start := time.Now()
	reg, err := registry.Open(model)
	if err != nil {
		return nil, nil, 0, err
	}
	h, err := monitorhub.New(monitorhub.Config{
		Identifier: reg.Active().Identifier,
		Monitor:    hubMonitor,
		Segment:    hubSegment,
		EventLog:   eventLog,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	feeds := make([]func(csi.Packet) error, streams)
	for i := range feeds {
		if feeds[i], err = h.RegisterFeed(streamID(i)); err != nil {
			h.Close()
			return nil, nil, 0, err
		}
	}
	return h, feeds, time.Since(start), nil
}

// hubReading is the hub-side state at one edge of the window.
type hubReading struct {
	at     int64 // ns since the epoch
	totals monitorhub.Totals
	cpu    float64 // process user+system CPU seconds
	gc     float64 // GC CPU seconds, runtime/metrics estimate
}

func readHub(h *monitorhub.Hub, at int64) (hubReading, error) {
	cpu, err := processCPUSeconds()
	if err != nil {
		return hubReading{}, err
	}
	return hubReading{at: at, totals: h.Snapshot("", 0).Totals, cpu: cpu, gc: gcCPUSeconds()}, nil
}

func processCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// poll is one operator read of the fleet state.
type poll struct {
	at, end int64 // ns since the epoch
	pending int
}

// feedRecord is what the feeder noted about the feed completing one
// appearance's first session.
type feedRecord struct {
	due, start int64 // ns since the epoch; start == 0: never fed
	op         uint32
	span       int32 // the live hub.feed span, -1 when untraced
}

// runHub drives the in-process fleet monitor.
func runHub(env *runEnv, p hubParams) (*runResult, error) {
	res := newResult(env, p.describe())
	res.SUTGomaxprocs["monitorhub (in process)"] = runtime.GOMAXPROCS(0)
	fx, err := writeFixture(env.model)
	if err != nil {
		return nil, err
	}
	total := env.warmup + env.window
	perStream := int(total/p.interval) + 1
	tmpls := make([]*hubTemplate, len(hubLiquids))
	for i, liquid := range hubLiquids {
		if tmpls[i], err = buildTemplate(fx, env.seed, liquid, p, perStream); err != nil {
			return nil, err
		}
	}

	// Stream i starts at a seeded offset within one pass and then
	// sends a packet every interval. Feeding streams in order of their phase
	// within the interval keeps the schedule ascending.
	rng := rand.New(rand.NewSource(subSeed(env.seed, "hub/stagger", 0)))
	startPeriod := make([]int, p.streams)
	phase := make([]time.Duration, p.streams)
	order := make([]int, p.streams)
	for i := range order {
		off := time.Duration(rng.Int63n(int64(p.pass())))
		startPeriod[i], phase[i], order[i] = int(off/p.interval), off%p.interval, i
	}
	slices.SortFunc(order, func(a, b int) int { return int(phase[a] - phase[b]) })
	maxApps := len(tmpls[0].apps)
	for _, t := range tmpls {
		maxApps = max(maxApps, len(t.apps))
	}
	eventLog := p.streams * (maxApps + 1) * 4

	var times []float64
	timeStarts := func() error {
		for i := 0; i < setupLaunches/2; i++ {
			runtime.GC() // as before an HTTP workload's starts
			h, _, took, err := hubLaunch(fx.path, p.streams, eventLog)
			if err != nil {
				return err
			}
			times = append(times, float64(took))
			h.Close()
		}
		return nil
	}
	if err := timeStarts(); err != nil {
		return nil, err
	}
	h, feeds, _, err := hubLaunch(fx.path, p.streams, eventLog)
	if err != nil {
		return nil, err
	}
	defer h.Close()

	var spans *spanBuf
	if env.trace {
		windowFeeds := p.streams * int(env.window/p.interval+1)
		spans = newSpanBuf(windowFeeds + int(env.window/p.pollEvery+1) + p.streams*maxApps*4)
	}
	records := make([][]feedRecord, p.streams)
	for i := range records {
		records[i] = make([]feedRecord, len(tmpls[i%len(tmpls)].apps))
	}
	lags := make([]float64, 0, p.streams*int(env.window/p.interval+1))
	windowStart := int64(env.warmup)
	epoch := time.Now()
	since := func() int64 { return int64(time.Since(epoch)) }

	var nextOp atomic.Uint32 // op ids, shared by the feeder and the poller
	stopPolls := make(chan struct{})
	pollsDone := make(chan []poll, 1)
	go func() {
		var polls []poll
		tick := time.NewTicker(p.pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopPolls:
				pollsDone <- polls
				return
			case <-tick.C:
				t := since()
				snap := h.Snapshot("", p.pollTail)
				pl := poll{at: t, end: since(), pending: snap.Totals.Pending}
				polls = append(polls, pl)
				if spans != nil && t >= windowStart {
					spans.add(span{op: nextOp.Add(1), parent: -1, name: spanHubSnapshot, start: pl.at, end: pl.end})
				}
			}
		}
	}()

	var start hubReading
	started := false
	var lastWake int64
	var shift, startShift int64 // how far freezes have moved the schedule, in all and by the window's start, ns
	feed := func() error {
		for j := 0; ; j++ {
			period := time.Duration(j) * p.interval
			if period >= total {
				return nil
			}
			for _, i := range order {
				k := j - startPeriod[i]
				if k < 0 {
					continue
				}
				due := period + phase[i] // on the schedule: what the packet counts in
				if due >= total {
					break
				}
				at := int64(due) + shift // when it is fed
				if now := since(); at > now {
					sleepUntil(epoch.Add(time.Duration(max(at, lastWake+int64(feedQuantum)))))
					lastWake = since()
				} else if now-at > int64(freezeGap) {
					shift += now - at
				}
				if !started && int64(due) >= windowStart {
					var err error
					if start, err = readHub(h, since()); err != nil {
						return err
					}
					started, startShift = true, shift
				}
				t := tmpls[i%len(tmpls)]
				t0 := since()
				if err := feeds[i](t.packets[k%len(t.packets)]); err != nil {
					return fmt.Errorf("feeding %s: %w", streamID(i), err)
				}
				t1 := since()
				opID := nextOp.Add(1)
				sp := int32(-1)
				if int64(due) >= windowStart {
					lags = append(lags, float64(t0-at))
					if spans != nil && sliceModeAt(due, env.warmup, true, false) == modeTraced {
						sp = spans.add(span{op: opID, parent: -1, name: spanHubFeed, start: t0, end: t1})
					}
				}
				if n, ok := t.appAt[k]; ok {
					records[i][n] = feedRecord{due: int64(due), start: t0, op: opID, span: sp}
				}
			}
		}
	}
	var feedErr error
	onPromptThread(func() { feedErr = feed() })
	if feedErr != nil {
		close(stopPolls)
		<-pollsDone
		return nil, feedErr
	}
	end, err := readHub(h, since())
	close(stopPolls)
	polls := <-pollsDone
	if err != nil {
		return nil, err
	}
	h.Close() // drains every pending session, so every fed appearance has its event
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}

	snap := h.Snapshot("", eventLog)
	ev, err := matchEvents(res, snap, records, tmpls, epoch, env)
	if err != nil {
		return nil, err
	}
	if err := timeStarts(); err != nil {
		return nil, err
	}
	latencies, byMode := ev.latencies, ev.byMode
	e, b := end.totals, start.totals
	sessions := float64(e.Sessions - b.Sessions)
	identifiedN := float64(e.Identified - b.Identified)
	shed := float64(e.Shed - b.Shed)
	failedN := float64(e.Failed - b.Failed)
	// The window on the schedule's clock: the time the feeder's schedule
	// stood still for freezes of the machine is not the hub's.
	elapsed := time.Duration(end.at - start.at - (shift - startShift)).Seconds()
	if identifiedN == 0 || len(latencies) == 0 {
		return nil, fmt.Errorf("hub identified nothing in the window (%v sessions, %d latency samples)", sessions, len(latencies))
	}
	res.Attempted = int64(sessions)
	res.Failed = int64(shed+failedN) + ev.wrong
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "wimi-benchmark: %s: %d failures: %v shed, %v failed identifications, %d wrong or missing events\n",
			env.workload, res.Failed, shed, failedN, ev.wrong)
	}

	lagP99 := percentile(sortedCopy(lags), 99)
	if m := median(lags); m > float64(lagLimit) {
		res.problem("feeder median lag %.3fms exceeds %v", m/1e6, lagLimit)
	}
	var pending []float64
	pendingMax := 0
	for _, pl := range polls {
		if pl.at >= windowStart {
			pending = append(pending, float64(pl.pending))
			pendingMax = max(pendingMax, pl.pending)
		}
	}
	if backlogGrew(pending, float64(p.streams)/8) {
		res.problem("pending sessions grew through the window")
	}

	v := res.Values
	v["loadgen.lag_p99_ms"] = lagP99 / 1e6
	v["diag.freeze_shift_ms"] = float64(shift) / 1e6
	v["hub.sessions_per_s"] = sessions / elapsed
	v["hub.shed_ratio"] = ratio(shed, sessions)
	v["hub.pending_max"] = float64(pendingMax)
	v["hub.gc_cpu_ratio"] = ratio(end.gc-start.gc, end.cpu-start.cpu)
	if !env.trace {
		lat := sortedCopy(latencies)
		v["setup_s"] = median(times) / 1e9
		v["latency_p50_ms"] = percentile(lat, 50) / 1e6
		v["diag.latency_p90_ms"] = percentile(lat, 90) / 1e6
		v["throughput_per_s"] = identifiedN / elapsed
		v["cpu_ms_per_op"] = (end.cpu - start.cpu) * 1e3 / identifiedN
		v["peak_rss_mb"] = rss
		v["error_ratio"] = float64(res.Failed) / float64(res.Attempted)
		v["diag.latency_p99_ms"] = percentile(lat, 99) / 1e6
		v["diag.samples"] = float64(len(lat))
		return res, nil
	}

	// Traced run: a hub.verdict span per traced appearance, parenting its live
	// feed span and its replayed feature extraction and classification.
	for _, vo := range ev.traced {
		r := records[vo.stream][vo.app]
		root := spans.add(span{op: r.op, parent: -1, name: spanHubVerdict, start: r.start, end: vo.end})
		if r.span >= 0 && root >= 0 {
			spans.spans[r.span].parent = root
		}
		s := tmpls[vo.stream%len(tmpls)].apps[vo.app].session
		t0 := since()
		feats, err := wimi.ExtractFeatures(s, fx.pipeline)
		if err != nil {
			return nil, err
		}
		t1 := since()
		material := fx.id.IdentifyFeatures(feats.Vector)
		t2 := since()
		spans.add(span{op: r.op, parent: root, name: spanFeatures, start: t0, end: t1})
		spans.add(span{op: r.op, parent: root, name: spanClassify, start: t1, end: t2})
		if want := tmpls[vo.stream%len(tmpls)].apps[vo.app].material; material != want {
			return nil, fmt.Errorf("replayed stages identify %s appearance %d as %s, the oracle as %s",
				streamID(vo.stream), vo.app, material, want)
		}
	}
	all := spans.recorded()
	v["core.features_us"] = median(durations(all, spanFeatures)) / 1e3
	v["core.classify_us"] = median(durations(all, spanClassify)) / 1e3
	v["hub.feed_us"] = mean(durations(all, spanHubFeed)) / 1e3
	v["hub.snapshot_us"] = median(durations(all, spanHubSnapshot)) / 1e3
	v["hub.unattributed_ms"] = median(unattributed(all, spanHubVerdict, spanFeatures, spanClassify)) / 1e6
	v["trace.overhead_ratio"] = median(byMode[modeTraced])/median(byMode[modePlain]) - 1
	if err := finishSpans(res, spans, env.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// verdictOp is a traced appearance: its stream, its index and when its
// material-identified event fired, in ns since the epoch.
type verdictOp struct {
	stream, app int
	end         int64
}

// hubEvents is what the hub's event log says about the run.
type hubEvents struct {
	latencies []float64               // window appearances, feed to event, ns
	byMode    map[sliceMode][]float64 // the same by slice mode
	traced    []verdictOp             // traced window appearances
	wrong     int64                   // events the oracle did not predict, and appearances without one
}

// matchEvents checks the whole event log against the oracle: Seq must run
// without gaps, and every material-identified event must name the material
// the oracle gave its appearance's first session. A mismatch or a gap is a
// problem of res.
func matchEvents(res *runResult, snap monitorhub.FleetSnapshot, records [][]feedRecord, tmpls []*hubTemplate,
	epoch time.Time, env *runEnv) (hubEvents, error) {
	windowStart := int64(env.warmup)
	if uint64(len(snap.Events)) != snap.Totals.Events {
		res.problem("event log holds %d of %d events: samples lost", len(snap.Events), snap.Totals.Events)
	}
	for n, ev := range snap.Events {
		if ev.Seq != uint64(n+1) {
			res.problem("event Seq gap: %d at position %d", ev.Seq, n+1)
			break
		}
	}
	streamIdx := map[string]int{}
	for i := range records {
		streamIdx[streamID(i)] = i
	}
	next := make([]int, len(records)) // per stream, the first appearance no event has matched
	matched := make([][]bool, len(records))
	for i := range matched {
		matched[i] = make([]bool, len(records[i]))
	}
	out := hubEvents{byMode: map[sliceMode][]float64{}}
	// A material-identified event belongs to the latest appearance of its
	// stream whose first session was fed before the event; appearances
	// skipped on the way got no event. The templates were chosen so that
	// every appearance gets exactly one and nothing swaps: any other event
	// is wrong, a failure the oracle could not foresee, not a mismatch.
	for _, ev := range snap.Events {
		i, ok := streamIdx[ev.Stream]
		if !ok {
			return out, fmt.Errorf("event for unknown stream %q", ev.Stream)
		}
		if ev.Kind == "material-swapped" {
			out.wrong++
		}
		if ev.Kind != "material-identified" {
			continue
		}
		at := int64(ev.Time.Sub(epoch))
		n := next[i]
		for n+1 < len(records[i]) && records[i][n+1].start != 0 && records[i][n+1].start <= at {
			n++
		}
		if n >= len(records[i]) || records[i][n].start == 0 || records[i][n].start > at {
			out.wrong++
			continue
		}
		next[i], matched[i][n] = n+1, true
		if want := tmpls[i%len(tmpls)].apps[n].material; ev.Material != want {
			res.Mismatches++
			res.problem("oracle mismatch: %s appearance %d identified as %s, want %s", ev.Stream, n, ev.Material, want)
		}
		r := records[i][n]
		if r.due < windowStart {
			continue
		}
		lat := float64(at - r.start)
		out.latencies = append(out.latencies, lat)
		mode := sliceModeAt(time.Duration(r.due), env.warmup, env.trace, false)
		out.byMode[mode] = append(out.byMode[mode], lat)
		if env.trace && mode == modeTraced {
			out.traced = append(out.traced, verdictOp{stream: i, app: n, end: at})
		}
	}
	for i := range records {
		for n, r := range records[i] {
			if r.start != 0 && r.due >= windowStart && !matched[i][n] {
				out.wrong++ // fed in the window, never identified
			}
		}
	}
	return out, nil
}
