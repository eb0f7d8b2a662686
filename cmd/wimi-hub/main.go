// wimi-hub is the fleet-scale streaming monitor: it multiplexes many
// concurrent CSI streams — simulated in-process vessels and/or real TCP
// sources collected through the resilient transport — through per-stream
// change-point detection, sliding-window segmentation, and pooled
// identification, and serves the aggregate fleet state over HTTP.
//
// Offline→online workflow:
//
//	wimi-sim -save-model /models/lab.json             # train offline, persist
//	wimi-hub -model /models/lab.json -streams 1000    # monitor a simulated fleet
//	curl localhost:8078/v1/fleet | jq .totals
//
// Real sources attach with -collect id=host:port (repeatable via commas);
// each gets a reconnecting collector that survives source restarts.
//
// Endpoints:
//
//	GET /v1/fleet   fleet snapshot: totals, last epoch, per-stream state
//	                machine + last verdict, event-log tail
//	GET /healthz    liveness
//	GET /readyz     readiness (every stream's detector has learned)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/monitor"
	"repro/internal/monitorhub"
	"repro/internal/registry"
	"repro/internal/simulate"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wimi-hub:", err)
		os.Exit(1)
	}
}

// replaySource replays a shared packet template from a start offset. The
// template is read-only and shared by every stream of the same liquid —
// packet structs are copied per emission but the CSI matrices are shared,
// so a thousand streams cost one template's worth of matrix memory.
type replaySource struct {
	pkts  []csi.Packet
	next  int
	loop  bool
	wraps int
}

func (rs *replaySource) Next() (csi.Packet, error) {
	if rs.next >= len(rs.pkts) {
		if !rs.loop {
			return csi.Packet{}, io.EOF
		}
		rs.next = 0
		rs.wraps++
	}
	pkt := rs.pkts[rs.next]
	rs.next++
	return pkt, nil
}

// buildTemplate simulates one continuous stream: quiet, then the liquid,
// ending while the target is still present (so a finite replay leaves the
// last verdict standing).
func buildTemplate(liquid string, quietLen, targetLen int, seed int64) ([]csi.Packet, error) {
	sc := simulate.Default()
	m, err := material.PaperDatabase().Get(liquid)
	if err != nil {
		return nil, err
	}
	sc.Liquid = &m
	sc.Packets = quietLen + targetLen
	s, err := simulate.Session(sc, seed)
	if err != nil {
		return nil, err
	}
	pkts := make([]csi.Packet, 0, quietLen+targetLen)
	pkts = append(pkts, s.Baseline.Packets[:quietLen]...)
	pkts = append(pkts, s.Target.Packets[:targetLen]...)
	return pkts, nil
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("wimi-hub", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8078", "fleet API listen address (port 0 picks a free port)")
		modelPath = fs.String("model", "", "model file or directory of model files (required)")
		streams   = fs.Int("streams", 8, "simulated vessel streams to drive")
		liquids   = fs.String("liquids", "honey,pure-water,soy", "comma-separated liquids cycled across simulated streams")
		interval  = fs.Duration("interval", 2*time.Millisecond, "per-stream packet pacing for simulated streams (0 = as fast as possible)")
		loop      = fs.Bool("loop", true, "loop simulated streams forever (false: one pass, then EOF)")
		collect   = fs.String("collect", "", "real TCP sources to attach, id=host:port comma-separated")
		workers   = fs.Int("workers", 0, "identification workers (0 = GOMAXPROCS)")
		pending   = fs.Int("pending", 2, "pending sessions per stream before the oldest is shed")
		confirm   = fs.Int("confirm", 2, "consecutive differing confident verdicts that confirm a material swap")
		floor     = fs.Float64("floor", 0.5, "confidence floor below which verdicts do not move the state machine")
		epoch     = fs.Duration("epoch", 5*time.Second, "fleet-stats aggregation epoch")
		baseline  = fs.Int("baseline", 30, "baseline packets each stream's detector learns from")
		rebase    = fs.Int("rebaseline", 0, "quiet packets after which a stream slowly re-learns its baseline (0 disables)")
		stride    = fs.Int("stride", 20, "target packets between successive sliding-window identifications")
		seed      = fs.Int64("seed", 1, "simulation seed")
		quietLen  = fs.Int("quiet", 40, "quiet packets before each simulated target")
		targetLen = fs.Int("target", 200, "target packets per simulated pass")
		batchMax  = fs.Int("batch", 0, "max sessions per cross-stream classification batch (0 = default)")
		pprofAddr = fs.String("pprof", "", "serve pprof on this address (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("-model is required (train one with: wimi-sim -save-model model.json)")
	}
	if *streams < 0 {
		return fmt.Errorf("-streams must be non-negative")
	}
	reg, err := registry.Open(*modelPath)
	if err != nil {
		return err
	}
	model := reg.Active()

	h, err := monitorhub.New(monitorhub.Config{
		Identifier: model.Identifier,
		Monitor: monitor.Config{
			BaselinePackets: *baseline,
			RebaselineAfter: *rebase,
		},
		Segment:          monitor.SegmenterOptions{Stride: *stride},
		Workers:          *workers,
		PendingPerStream: *pending,
		BatchMax:         *batchMax,
		ConfirmVerdicts:  *confirm,
		ConfidenceFloor:  *floor,
		EpochInterval:    *epoch,
	})
	if err != nil {
		return err
	}

	// Simulated fleet: one shared read-only template per liquid, streams
	// cycling across them. Start offsets stagger within the quiet prefix so
	// every stream still learns a true-quiet baseline.
	names := strings.Split(*liquids, ",")
	templates := make([][]csi.Packet, 0, len(names))
	for li, name := range names {
		tmpl, err := buildTemplate(strings.TrimSpace(name), *quietLen, *targetLen, *seed+int64(li)*7919)
		if err != nil {
			return err
		}
		templates = append(templates, tmpl)
	}
	offsets := *quietLen / 4
	if offsets < 1 {
		offsets = 1
	}
	for i := 0; i < *streams; i++ {
		tmpl := templates[i%len(templates)]
		// Offsets stay in the first quarter of the quiet prefix: the
		// remaining quiet run must still cover baseline learning plus the
		// segmenter's frozen-baseline window, or the stream never yields a
		// clean session.
		src := &replaySource{pkts: tmpl[i%offsets:], loop: *loop}
		id := fmt.Sprintf("sim-%04d-%s", i, strings.TrimSpace(names[i%len(names)]))
		if err := h.RegisterSource(id, src, *interval); err != nil {
			return err
		}
	}

	// Real sources: resilient collectors that redial through restarts.
	if *collect != "" {
		for _, spec := range strings.Split(*collect, ",") {
			id, target, found := strings.Cut(strings.TrimSpace(spec), "=")
			if !found || id == "" || target == "" {
				return fmt.Errorf("-collect %q: want id=host:port", spec)
			}
			err := h.RegisterCollector(id, transport.CollectorConfig{
				Addr:           target,
				MaxRetries:     2,
				InitialBackoff: 50 * time.Millisecond,
				MaxBackoff:     time.Second,
				ReadTimeout:    3 * time.Second,
			}, 250*time.Millisecond)
			if err != nil {
				return err
			}
		}
	}

	// Opt-in pprof on its own listener: profiling stays off the fleet API
	// port and is never reachable unless explicitly enabled.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(out, "wimi-hub: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, pm); err != nil {
				fmt.Fprintln(os.Stderr, "wimi-hub: pprof server:", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wimi-hub: listening on %s (model %s, %d simulated streams)\n",
		ln.Addr(), model.Version, *streams)

	// Signals register before the listener serves: a SIGTERM racing the
	// first request must drain, not kill.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	httpSrv := &http.Server{Handler: h.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		h.Close()
		if err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	case sig := <-sigs:
		fmt.Fprintf(out, "wimi-hub: %s received, draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		shutdownErr := httpSrv.Shutdown(ctx)
		cancel()
		h.Close() // stops ingest, finishes every pending identification
		t := h.Snapshot("", 0).Totals
		fmt.Fprintf(out, "wimi-hub: drained (%d streams, %d packets, %d sessions, %d identified, %d shed, %d events)\n",
			t.Streams, t.Packets, t.Sessions, t.Identified, t.Shed, t.Events)
		return shutdownErr
	}
}
