// wimi-load is the cluster load harness: it fires identify requests at
// a wimi-gateway (or a bare wimi-serve) in open-loop (target RPS) or
// closed-loop (fixed concurrency) mode and measures the latency
// distribution:
//
//	wimi-load -target http://127.0.0.1:8080 -duration 5s -concurrency 8
//	wimi-load -target http://127.0.0.1:8080 -rps 200 -duration 10s
//
// The stdout summary is one parseable line:
//
//	wimi-load: ok=812 shed=3 failed=0 dropped=0 p50=11ms p90=19ms p99=40ms rps=163.1
//
// ok counts verified 200s, shed counts honest 429/503 backpressure,
// failed counts transport errors and unexpected statuses (a healthy
// cluster keeps it at zero), dropped counts open-loop ticks skipped
// because the in-flight cap was reached.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csi"
	"repro/internal/gateway"
	"repro/internal/material"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wimi-load:", err)
		os.Exit(1)
	}
}

// counters aggregates request outcomes across workers.
type counters struct {
	ok      atomic.Int64
	shed    atomic.Int64
	failed  atomic.Int64
	dropped atomic.Int64
}

// latencies records successful-request latencies for percentiles.
type latencies struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted durs by
// nearest-rank; zero when empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("wimi-load", flag.ContinueOnError)
	var (
		target      = fs.String("target", "", "gateway or serve base URL (required)")
		duration    = fs.Duration("duration", 5*time.Second, "how long to generate load")
		rps         = fs.Float64("rps", 0, "open-loop target requests/sec (0 = closed loop)")
		concurrency = fs.Int("concurrency", 4, "closed-loop workers, or open-loop in-flight cap")
		sessions    = fs.Int("sessions", 4, "distinct measurement sessions to cycle through")
		seed        = fs.Int64("seed", 1, "session synthesis seed")
		timeout     = fs.Duration("timeout", 10*time.Second, "per-request client timeout")
		batch       = fs.Int("batch", 1, "requests per POST /v1/identify/batch round trip (1 = single /v1/identify; >1 needs a wimi-serve target)")
		serveStats  = fs.Bool("serve-stats", false, "after the run, read the target's stats (gateway /v1/cluster, falling back to serve /readyz) and print its batching/coalescing counters")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("-target is required")
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be ≥1")
	}
	if *sessions < 1 {
		return fmt.Errorf("-sessions must be ≥1")
	}
	if *batch < 1 || *batch > serve.MaxBatchSlots {
		return fmt.Errorf("-batch must be in [1,%d]", serve.MaxBatchSlots)
	}

	bodies, err := makeBodies(*sessions, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wimi-load: %d sessions synthesised, %s for %v (%s)\n",
		len(bodies), *target, *duration, loopMode(*rps, *concurrency))

	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency * 2},
	}
	defer client.CloseIdleConnections()
	url := *target + "/v1/identify"

	var cnt counters
	var lat latencies
	var reqIndex atomic.Int64
	fire := func() {
		i := int(reqIndex.Add(1)-1) % len(bodies)
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			cnt.failed.Add(1)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			cnt.ok.Add(1)
			lat.add(time.Since(start))
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			cnt.shed.Add(1)
		default:
			cnt.failed.Add(1)
		}
	}
	if *batch > 1 {
		fire = batchFire(client, *target, bodies, *batch, &reqIndex, &cnt, &lat)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	start := time.Now()
	if *rps > 0 {
		openLoop(ctx, *rps, *concurrency, fire, &cnt)
	} else {
		closedLoop(ctx, *concurrency, fire)
	}
	elapsed := time.Since(start)

	lat.mu.Lock()
	sort.Slice(lat.durs, func(i, j int) bool { return lat.durs[i] < lat.durs[j] })
	sorted := lat.durs
	lat.mu.Unlock()
	p50 := percentile(sorted, 50)
	p90 := percentile(sorted, 90)
	p99 := percentile(sorted, 99)
	achieved := float64(cnt.ok.Load()+cnt.shed.Load()+cnt.failed.Load()) / elapsed.Seconds()

	fmt.Fprintf(out, "wimi-load: ok=%d shed=%d failed=%d dropped=%d p50=%s p90=%s p99=%s rps=%.1f\n",
		cnt.ok.Load(), cnt.shed.Load(), cnt.failed.Load(), cnt.dropped.Load(),
		p50.Round(time.Millisecond), p90.Round(time.Millisecond), p99.Round(time.Millisecond), achieved)

	if *serveStats {
		if err := printServeStats(out, client, *target); err != nil {
			return err
		}
	}
	return nil
}

// batchFire returns a fire function that rides size slots per HTTP round
// trip through POST /v1/identify/batch. Outcomes are counted per slot,
// and the round-trip latency is attributed to every OK slot — that is
// the latency each of those requests actually observed, since none of
// them completes before the batch answer lands.
func batchFire(client *http.Client, target string, bodies [][]byte, size int, reqIndex *atomic.Int64, cnt *counters, lat *latencies) func() {
	url := target + "/v1/identify/batch"
	return func() {
		base := int(reqIndex.Add(int64(size)) - int64(size))
		reqs := make([][]byte, size)
		for j := 0; j < size; j++ {
			reqs[j] = bodies[(base+j)%len(bodies)]
		}
		frame := serve.AppendBatchFrame(nil, reqs)
		start := time.Now()
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			cnt.failed.Add(int64(size))
			return
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		elapsed := time.Since(start)
		if err != nil || resp.StatusCode != http.StatusOK {
			switch resp.StatusCode {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				cnt.shed.Add(int64(size))
			default:
				cnt.failed.Add(int64(size))
			}
			return
		}
		var out serve.BatchIdentifyResponse
		if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != size {
			cnt.failed.Add(int64(size))
			return
		}
		for _, slot := range out.Results {
			switch slot.Status {
			case http.StatusOK:
				cnt.ok.Add(1)
				lat.add(elapsed)
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				cnt.shed.Add(1)
			default:
				cnt.failed.Add(1)
			}
		}
	}
}

// printServeStats summarises the target's batching behaviour after the
// run. A gateway target answers /v1/cluster (coalescing, upstream batch
// histogram, connection reuse); a bare wimi-serve answers /readyz (how
// many captures each admitted request carried). Serve runs one pipeline
// per capture, so its histogram counts requests, not batches: mass above
// size 1 comes only from batch frames.
func printServeStats(out io.Writer, client *http.Client, target string) error {
	if done, err := printGatewayStats(out, client, target); done || err != nil {
		return err
	}
	resp, err := client.Get(target + "/readyz")
	if err != nil {
		return fmt.Errorf("reading %s/readyz: %w", target, err)
	}
	defer func() { _ = resp.Body.Close() }()
	var ready struct {
		Stats serve.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		return fmt.Errorf("decoding %s/readyz (is the target a wimi-serve?): %w", target, err)
	}
	st := ready.Stats
	var requests, framed uint64
	fmt.Fprint(out, "wimi-load: captures per request")
	for i, n := range st.BatchSizes {
		requests += n
		if i > 0 {
			framed += n
		}
		if n > 0 {
			fmt.Fprintf(out, " %d:%d", i+1, n)
		}
	}
	if requests == 0 {
		fmt.Fprint(out, " (no requests admitted)")
	} else {
		fmt.Fprintf(out, " (%d requests, %.0f%% frames of several)", requests, 100*float64(framed)/float64(requests))
	}
	fmt.Fprintln(out)
	return nil
}

// printGatewayStats reads /v1/cluster and, when the target turns out to
// be a gateway, prints its data-plane counters. Returns done=false when
// the target has no /v1/cluster (a bare wimi-serve) so the caller can
// fall back.
func printGatewayStats(out io.Writer, client *http.Client, target string) (bool, error) {
	resp, err := client.Get(target + "/v1/cluster")
	if err != nil {
		return false, fmt.Errorf("reading %s/v1/cluster: %w", target, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	var cluster struct {
		Stats gateway.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cluster); err != nil {
		return false, fmt.Errorf("decoding %s/v1/cluster: %w", target, err)
	}
	st := cluster.Stats
	fmt.Fprintf(out, "wimi-load: gateway coalesced=%d batches=%d", st.Coalesced, st.BatchesSent)
	if len(st.BatchSizes) > 0 {
		fmt.Fprint(out, " flush sizes")
		for i, n := range st.BatchSizes {
			if n > 0 {
				fmt.Fprintf(out, " %d:%d", i+1, n)
			}
		}
	}
	reusePct := 0.0
	if st.UpstreamConns > 0 {
		reusePct = 100 * float64(st.UpstreamConnsReused) / float64(st.UpstreamConns)
	}
	fmt.Fprintf(out, " conns=%d reused=%.0f%%\n", st.UpstreamConns, reusePct)
	return true, nil
}

func loopMode(rps float64, concurrency int) string {
	if rps > 0 {
		return fmt.Sprintf("open loop, %.0f rps target", rps)
	}
	return fmt.Sprintf("closed loop, %d workers", concurrency)
}

// closedLoop keeps exactly n requests in flight until ctx expires: each
// worker fires back-to-back, so throughput floats with cluster latency.
func closedLoop(ctx context.Context, n int, fire func()) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				fire()
			}
		}()
	}
	wg.Wait()
}

// openLoop fires at a fixed tick independent of response latency — the
// arrival process a real client population produces. The in-flight cap
// keeps a stalled cluster from accumulating unbounded goroutines; ticks
// that find the cap exhausted are counted as dropped rather than
// silently queued (queueing would hide coordinated omission).
func openLoop(ctx context.Context, rps float64, maxInflight int, fire func(), cnt *counters) {
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	sem := make(chan struct{}, maxInflight)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					fire()
				}()
			default:
				cnt.dropped.Add(1)
			}
		}
	}
}

// makeBodies synthesises n distinct identify request bodies: sessions
// simulated over the paper's material set, encoded exactly as the wire
// format expects. Distinct bodies are never coalesced by a gateway, so
// each one costs a backend its own identification.
func makeBodies(n int, seed int64) ([][]byte, error) {
	db := material.PaperDatabase()
	names := db.Names()
	if len(names) == 0 {
		return nil, fmt.Errorf("empty material database")
	}
	var bodies [][]byte
	for i := 0; i < n; i++ {
		m, err := db.Get(names[i%len(names)])
		if err != nil {
			return nil, err
		}
		sc := simulate.Default()
		sc.Liquid = &m
		s, err := simulate.Session(sc, seed+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("synthesising session %d: %w", i, err)
		}
		body, err := encodeIdentify(s)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

func encodeIdentify(s *csi.Session) ([]byte, error) {
	enc := func(c *csi.Capture) ([]byte, error) {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, c.NumAntennas(), s.Carrier)
		if err != nil {
			return nil, err
		}
		if err := w.WriteCapture(c); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	baseline, err := enc(&s.Baseline)
	if err != nil {
		return nil, err
	}
	target, err := enc(&s.Target)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.IdentifyRequest{Baseline: baseline, Target: target})
}
