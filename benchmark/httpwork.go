package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/wimi"
)

// httpParams describes one HTTP workload.
type httpParams struct {
	target      string        // "serve" (one wimi-serve) or "cluster" (gateway + two wimi-serve)
	rate        float64       // open loop: Poisson arrivals per second; 0 selects a closed loop
	clients     int           // client connections, capped at nproc
	sessions    int           // distinct request bodies
	packets     int           // packets per capture
	reloadEvery time.Duration // closed loop: one POST /v1/reload per interval (0: none)
	inputs      string        // names the generated bodies and schedule; workloads sharing it send identical traffic
}

func (p httpParams) describe() map[string]any {
	return map[string]any{
		"target": p.target, "rate_per_s": p.rate, "clients": min(p.clients, runtime.NumCPU()),
		"sessions": p.sessions, "packets": p.packets, "reload_every_s": p.reloadEvery.Seconds(),
		"inputs": p.inputs, "measured_launches": measuredLaunches, "setup_launches": setupLaunches,
	}
}

const (
	// maxClosedLoopRate bounds the ops a closed-loop launch can send per
	// second; the op table is allocated for it before the launch.
	maxClosedLoopRate = 2000

	// lagLimit is the validity gate on the generators' median lateness:
	// above it they did not keep their schedule. The median is gated, not
	// the p99 that loadgen.lag_p99_ms reports: freezes of the whole shared
	// guest, 5-11ms every few seconds and more in busy spells, pushed the
	// hub feeder's p99 to 10.2ms while its median stays under its 1ms feed
	// quantum, and a generator that falls behind moves the median.
	lagLimit = 2 * time.Millisecond

	// setupLaunches is how many cold starts setup_s takes the median of. The
	// host's speed drifts by tens of percent from one second to the next,
	// while a burst of starts takes a tenth of a second, so they are timed
	// in groups spread over the run: HTTP workloads before each measured
	// launch and after the last, the hub before and after its window.
	setupLaunches = 16

	// measuredLaunches is how many further starts a run measures, each for
	// its own warm-up and a share of the window; every reported value is the
	// median over them. On a shared two-CPU machine a launch settles into a
	// fast or a slow state and keeps it: consecutive single-launch runs
	// alternated between the two while each held its state through a 40s
	// window, so the median of three short launches repeats far better than
	// one long launch. Five launches of 1s warm-up and 4s each repeated worse
	// than three: ten seeds run alternately gave serve-long's CPU per op a
	// spread of 8.6% against 4.8%, and cluster-paced's p90 12.7% against 9.2%.
	measuredLaunches = 3
)

// httpRun is one run of an HTTP workload: its inputs, and what its launches
// have measured so far.
type httpRun struct {
	env     *runEnv
	p       httpParams
	fx      *fixture
	bodies  [][]byte
	oracle  []verdict
	res     *runResult
	spans   *spanBuf                // nil when untraced
	ops     []op                    // every launch's ops, indexed by op id
	byMode  map[sliceMode][]float64 // window latencies by slice mode
	samples int                     // window latencies of all launches
	lags    []float64               // generator lateness of every window op
	epoch   time.Time               // the run's, which span times count from
}

// runHTTP runs one HTTP workload against freshly launched binaries.
func runHTTP(env *runEnv, p httpParams) (*runResult, error) {
	r := &httpRun{env: env, p: p, res: newResult(env, p.describe()), byMode: map[sliceMode][]float64{}, epoch: time.Now()}
	var err error
	if r.fx, err = writeFixture(env.model); err != nil {
		return nil, err
	}
	if r.bodies, err = makeBodies(env.seed, p.inputs, p.sessions, p.packets); err != nil {
		return nil, err
	}
	if r.oracle, err = oracleVerdicts(r.fx, r.bodies); err != nil {
		return nil, err
	}
	if env.trace {
		r.spans = newSpanBuf(measuredLaunches * r.opsPerLaunch() * (2 + len(replayStages)))
	}
	var setup []float64
	timeStarts := func() error {
		for i := 0; i < setupLaunches/(measuredLaunches+1); i++ {
			// A collection the harness left pending would compete with the
			// start for the CPUs by an amount that depends on the seed.
			runtime.GC()
			s, took, err := launchSUT(p.target, env.binDir, r.fx.path)
			if err != nil {
				return err
			}
			setup = append(setup, took.Seconds())
			s.stop()
		}
		return nil
	}
	var launches []map[string]float64
	for j := 0; j < measuredLaunches; j++ {
		if err := timeStarts(); err != nil {
			return nil, err
		}
		s, _, err := launchSUT(p.target, env.binDir, r.fx.path)
		if err != nil {
			return nil, err
		}
		vals, err := r.measure(j, s)
		if err != nil {
			return nil, err
		}
		launches = append(launches, vals)
	}
	if err := timeStarts(); err != nil {
		return nil, err
	}
	v := r.res.Values
	lag := percentile(sortedCopy(r.lags), 99)
	if m := median(r.lags); m > float64(lagLimit) {
		r.res.problem("load generator median lag %.3fms exceeds %v", m/1e6, lagLimit)
	}
	v["loadgen.lag_p99_ms"] = lag / 1e6
	for name := range launches[0] {
		var xs []float64
		for _, l := range launches {
			xs = append(xs, l[name])
		}
		v[name] = median(xs)
	}
	if !env.trace {
		v["setup_s"] = median(setup)
		v["error_ratio"] = float64(r.res.Failed) / float64(r.res.Attempted)
		v["diag.samples"] = float64(r.samples)
		return r.res, nil
	}
	r.layers()
	if err := finishSpans(r.res, r.spans, env.spans); err != nil {
		return nil, err
	}
	return r.res, nil
}

// launchWindow is each measured launch's share of the window.
func (r *httpRun) launchWindow() time.Duration { return r.env.window / measuredLaunches }

func (r *httpRun) opsPerLaunch() int {
	run := (r.env.warmup + r.launchWindow()).Seconds()
	if r.p.rate > 0 {
		return int(r.p.rate*run) + 2
	}
	return int(run * maxClosedLoopRate)
}

// measure drives launch j of the system through its warm-up and window,
// stops it, replays its traced requests, and returns the launch's values.
func (r *httpRun) measure(j int, s *sut) (map[string]float64, error) {
	defer s.stop()
	env, p := r.env, r.p
	window := r.launchWindow()
	clients := min(p.clients, runtime.NumCPU())
	openLoop, direct := p.rate > 0, p.target == "cluster"
	for _, pr := range s.procs() {
		r.res.SUTGomaxprocs[pr.name] = defaultGOMAXPROCS()
	}
	var ops []op
	if openLoop {
		sched := poissonSchedule(subSeed(env.seed, p.inputs+"/arrivals", j), p.rate, env.warmup, window)
		ops = make([]op, len(sched))
		for i, due := range sched {
			ops[i] = op{due: int64(due), body: int32(i % len(r.bodies)), mode: sliceModeAt(due, env.warmup, env.trace, direct)}
		}
	} else {
		ops = make([]op, r.opsPerLaunch())
	}
	l := &loader{client: newLoadClient(clients), entry: s.entry.url, bodies: r.bodies, oracle: r.oracle,
		version: r.fx.version, spans: r.spans, firstID: len(r.ops)}
	for _, b := range s.backends {
		l.direct = append(l.direct, b.url)
	}
	firstSpan := 0
	if r.spans != nil {
		firstSpan = len(r.spans.recorded())
	}

	l.epoch = time.Now()
	l.spanAt = int64(l.epoch.Sub(r.epoch))
	type reading struct {
		snap sutSnapshot
		err  error
	}
	first := make(chan reading, 1)
	go func() {
		time.Sleep(time.Until(l.epoch.Add(env.warmup)))
		snap, err := s.snapshot()
		first <- reading{snap, err}
	}()
	var outstanding atomic.Int64
	backlog := make(chan []float64, 1)
	go func() {
		backlog <- sampleEvery(l.epoch, env.warmup, window, func() float64 { return float64(outstanding.Load()) })
	}()
	if openLoop {
		l.openLoop(ops, clients, &outstanding)
	} else {
		order := make([]int32, len(r.bodies))
		for i, b := range rand.New(rand.NewSource(subSeed(env.seed, p.inputs+"/order", j))).Perm(len(r.bodies)) {
			order[i] = int32(b)
		}
		n, full := l.closedLoop(ops, clients, env.warmup+window, order, p.reloadEvery,
			func(t time.Duration) sliceMode { return sliceModeAt(t, env.warmup, env.trace, false) })
		ops = ops[:n]
		if full {
			r.res.problem("closed loop exceeded %d ops/s; raise maxClosedLoopRate", maxClosedLoopRate)
		}
	}
	start := <-first
	if start.err != nil {
		return nil, fmt.Errorf("reading stats at the window start: %w", start.err)
	}
	end, err := s.snapshot()
	if err != nil {
		return nil, fmt.Errorf("reading stats at the window end: %w", err)
	}
	var rss float64
	for _, pr := range s.procs() {
		mib, err := peakRSSMiB(fmt.Sprint(pr.pid()))
		if err != nil {
			return nil, err
		}
		rss += mib
	}
	s.stop()

	t := tally(r.res, l, ops, int64(env.warmup), int64(env.warmup+window), openLoop)
	if t.verified == 0 {
		return nil, fmt.Errorf("no verified answers in the window (%d attempted, %d failed)", r.res.Attempted, r.res.Failed)
	}
	if openLoop && backlogGrew(<-backlog, 2*float64(clients)) {
		r.res.problem("open-loop backlog grew through the window")
	}
	v := map[string]float64{}
	if !env.trace {
		lat := sortedCopy(t.latencies)
		v["latency_p50_ms"] = percentile(lat, 50) / 1e6
		v["diag.latency_p90_ms"] = percentile(lat, 90) / 1e6
		v["diag.latency_p99_ms"] = percentile(lat, 99) / 1e6
		v["throughput_per_s"] = float64(t.verified) / time.Duration(t.lastDone-int64(env.warmup)).Seconds()
		var cpu float64
		for pr, c := range end.cpu {
			cpu += c - start.snap.cpu[pr]
		}
		v["cpu_ms_per_op"] = cpu * 1e3 / float64(t.verified)
		v["peak_rss_mb"] = rss
	}
	httpCounts(v, s, start.snap, end, t)
	r.samples += len(t.latencies)
	r.lags = append(r.lags, t.lags...)
	for m, lat := range t.byMode {
		r.byMode[m] = append(r.byMode[m], lat...)
	}
	r.ops = append(r.ops, ops...)
	if r.spans == nil {
		return v, nil
	}
	// The system has stopped: replay this launch's traced requests, with
	// nothing competing for the CPUs.
	for i, sp := range r.spans.recorded()[firstSpan:] {
		o := &r.ops[sp.op]
		if sp.name == spanRoundtrip && o.outcome == outOK && o.mode == modeTraced {
			if err := replayRequest(l, sp.op, int32(firstSpan+i), o.body, r.fx); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// httpTally is what the ops of the measured window add up to.
type httpTally struct {
	verified   int64     // identifies answered 200 and equal to the oracle
	identifies int64     // identify requests, reloads excluded
	viaGateway int64     // identify requests sent to the entry rather than a backend
	lastDone   int64     // when the last verified answer arrived, ns since the epoch
	lags       []float64 // open loop: generator lateness of every op
	latencies  []float64
	byMode     map[sliceMode][]float64 // latencies by slice mode
}

// tally counts the ops that fell due in [start, end) into res: attempted and
// failed. Every answer that differed from the oracle, in the warm-up too, is
// a problem that makes the run incorrect.
func tally(res *runResult, l *loader, ops []op, start, end int64, openLoop bool) httpTally {
	t := httpTally{byMode: map[sliceMode][]float64{}}
	mismatches := 0
	for i := range ops {
		o := &ops[i]
		if o.outcome == outMismatch {
			mismatches++
		}
		if o.due < start || o.due >= end {
			continue
		}
		res.Attempted++
		if openLoop {
			t.lags = append(t.lags, float64(o.queued-o.due))
		}
		if o.outcome != outOK {
			res.Failed++
		}
		if o.body == reloadBody {
			continue
		}
		t.identifies++
		if o.mode != modeDirect {
			t.viaGateway++
		}
		if o.outcome == outOK {
			t.verified++
			t.lastDone = max(t.lastDone, o.done)
			t.latencies = append(t.latencies, float64(o.done-o.due))
			t.byMode[o.mode] = append(t.byMode[o.mode], float64(o.done-o.due))
		}
	}
	if mismatches > 0 {
		res.Mismatches += int64(mismatches)
		for _, m := range l.mismatches {
			res.problem("oracle mismatch: %s", m)
		}
		res.problem("%d answers differ from the oracle", mismatches)
	}
	return t
}

// sampleEvery calls read every 100ms through the window [warmup,
// warmup+window) after epoch and returns the readings.
func sampleEvery(epoch time.Time, warmup, window time.Duration, read func() float64) []float64 {
	var out []float64
	for t := warmup; t < warmup+window; t += 100 * time.Millisecond {
		time.Sleep(time.Until(epoch.Add(t)))
		out = append(out, read())
	}
	return out
}

// httpCounts fills the per-layer rows that come from the binaries' public
// stats and /proc: deltas over the window, divided by the window's ops.
func httpCounts(v map[string]float64, s *sut, start, end sutSnapshot, t httpTally) {
	var serveCPU float64
	for _, b := range s.backends {
		serveCPU += end.cpu[b] - start.cpu[b]
	}
	v["serve.cpu_ms_per_op"] = serveCPU * 1e3 / float64(t.verified)
	var batches, batched, shed, timeouts float64
	for i := range end.serve {
		e, b := end.serve[i], start.serve[i]
		for k := range e.BatchSizes {
			n := float64(e.BatchSizes[k] - b.BatchSizes[k])
			batches += n
			batched += n * float64(k+1)
		}
		shed += float64(e.Shed - b.Shed)
		timeouts += float64(e.Timeouts - b.Timeouts)
	}
	v["serve.batch_size_mean"] = ratio(batched, batches)
	v["serve.shed_ratio"] = ratio(shed, float64(t.identifies))
	v["serve.timeout_ratio"] = ratio(timeouts, float64(t.identifies))
	if s.gateway == nil {
		return
	}
	g, g0 := end.gateway, start.gateway
	v["gateway.cpu_ms_per_op"] = (end.cpu[s.gateway] - start.cpu[s.gateway]) * 1e3 / float64(t.verified)
	var flushes, slots float64
	for k := range g.BatchSizes {
		var before uint64
		if k < len(g0.BatchSizes) {
			before = g0.BatchSizes[k]
		}
		n := float64(g.BatchSizes[k] - before)
		flushes += n
		slots += n * float64(k+1)
	}
	v["gateway.upstream_batch_mean"] = ratio(slots, flushes)
	v["gateway.coalesced_ratio"] = ratio(float64(g.Coalesced-g0.Coalesced), float64(t.viaGateway))
	v["gateway.retry_ratio"] = ratio(float64(g.Retried-g0.Retried), float64(t.viaGateway))
	v["gateway.conn_reuse_ratio"] = ratio(float64(g.UpstreamConnsReused-g0.UpstreamConnsReused), float64(g.UpstreamConns-g0.UpstreamConns))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers derives the traced per-layer rows from every launch's spans.
func (r *httpRun) layers() {
	var rtTraced, rtDirect []float64
	spans := r.spans.recorded()
	for _, s := range spans {
		if o := &r.ops[s.op]; s.name == spanRoundtrip && o.outcome == outOK {
			if o.mode == modeDirect {
				rtDirect = append(rtDirect, s.dur())
			} else {
				rtTraced = append(rtTraced, s.dur())
			}
		}
	}
	v := r.res.Values
	v["serve.roundtrip_us"] = median(rtTraced) / 1e3
	for _, st := range replayStages {
		v[spanNames[st]+"_us"] = median(durations(spans, st)) / 1e3
	}
	v["serve.unattributed_us"] = median(unattributed(spans, spanRoundtrip, replayStages...)) / 1e3
	if reloads := durations(spans, spanReload); len(reloads) > 0 {
		v["registry.reload_ms"] = median(reloads) / 1e6
	}
	if len(rtDirect) > 0 {
		v["gateway.hop_us"] = (median(rtTraced) - median(rtDirect)) / 1e3
	}
	v["trace.overhead_ratio"] = median(r.byMode[modeTraced])/median(r.byMode[modePlain]) - 1
}

// replayRequest passes one request's exact body through each serving stage
// once, recording a span per stage under the request's round-trip span.
func replayRequest(l *loader, opID uint32, parent int32, body int32, fx *fixture) error {
	stage := func(name spanName, start int64) int64 {
		end := l.since()
		l.spans.add(span{op: opID, parent: parent, name: name, start: l.spanAt + start, end: l.spanAt + end})
		return end
	}
	t := l.since()
	var req serve.IdentifyRequest
	if err := json.Unmarshal(l.bodies[body], &req); err != nil {
		return err
	}
	t = stage(spanDecodeJSON, t)
	s, err := decodeSession(&req)
	if err != nil {
		return err
	}
	t = stage(spanTraceDecode, t)
	feats, err := wimi.ExtractFeatures(s, fx.pipeline)
	if err != nil {
		return err
	}
	t = stage(spanFeatures, t)
	material := fx.id.IdentifyFeatures(feats.Vector)
	t = stage(spanClassify, t)
	want := l.oracle[body]
	if _, err := json.Marshal(serve.IdentifyResponse{Material: material, Omega: math.Float64frombits(want.omega),
		Confidence: want.confidence, ModelVersion: l.version}); err != nil {
		return err
	}
	stage(spanEncodeJSON, t)
	if material != want.material {
		return fmt.Errorf("replayed stages identify body %d as %s, the oracle as %s", body, material, want.material)
	}
	return nil
}
