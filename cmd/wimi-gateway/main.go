// wimi-gateway is the cluster front end for wimi-serve: it routes
// /v1/identify across N backends with rendezvous-hash affinity and
// bounded-load spillover, fails over around unhealthy backends (circuit
// breakers + /readyz probes), retries under a per-request deadline
// budget, honours backend Retry-After hints, verifies response
// integrity end to end, and keeps the cluster converged on one model
// digest by pushing /v1/reload at backends serving a stale sha256.
//
// Cluster quickstart (1 gateway + 3 backends):
//
//	wimi-sim -save-model /models/lab.json
//	wimi-serve -addr 127.0.0.1:8081 -model /models/lab.json &
//	wimi-serve -addr 127.0.0.1:8082 -model /models/lab.json &
//	wimi-serve -addr 127.0.0.1:8083 -model /models/lab.json &
//	wimi-gateway -addr 127.0.0.1:8080 -expect-model /models/lab.json \
//	  -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 \
//	  -batch 8
//	curl -d @request.json localhost:8080/v1/identify
//
// -batch > 1 turns on the batched data plane: concurrent requests to the
// same backend aggregate into one upstream /v1/identify/batch call and
// identical in-flight requests coalesce into a single upstream slot.
//
// Endpoints:
//
//	POST /v1/identify  routed + verified backend answer
//	GET  /v1/cluster   per-backend health, breaker and model state
//	GET  /healthz      liveness
//	GET  /readyz       readiness (≥1 routable backend, not draining)
//
// SIGHUP re-reads -expect-model's digest, so pushing a new model file
// and HUPing the gateway converges the whole cluster.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/registry"
	"repro/internal/resilience"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wimi-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("wimi-gateway", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		backends      = fs.String("backends", "", "comma-separated wimi-serve base URLs (required)")
		expectModel   = fs.String("expect-model", "", "model file or directory; its content digest is the version every backend must serve (SIGHUP re-reads)")
		probeInterval = fs.Duration("probe-interval", time.Second, "backend /readyz probe period")
		deadline      = fs.Duration("deadline", 10*time.Second, "per-request deadline budget shared across retries")
		retries       = fs.Int("retries", 3, "max attempts per request across backends")
		hedgeAfter    = fs.Duration("hedge-after", 0, "fire a duplicate request at the next backend after this delay (0 disables)")
		loadSlack     = fs.Int("load-slack", 2, "in-flight requests above the least-loaded backend before affinity spills")
		batchMax      = fs.Int("batch", 1, "aggregate up to this many concurrent requests per backend into one upstream batch call; >1 also coalesces identical in-flight requests (1 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated wimi-serve URLs)")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	expected := ""
	if *expectModel != "" {
		digest, err := registry.SourceDigest(*expectModel)
		if err != nil {
			return fmt.Errorf("resolving -expect-model: %w", err)
		}
		expected = digest
	}

	logger := log.New(out, "", log.LstdFlags)
	g, err := gateway.New(gateway.Config{
		Backends:        urls,
		ExpectedVersion: expected,
		ProbeInterval:   *probeInterval,
		RequestTimeout:  *deadline,
		MaxAttempts:     *retries,
		HedgeDelay:      *hedgeAfter,
		LoadSlack:       *loadSlack,
		BatchMax:        *batchMax,
		Backoff:         resilience.BackoffConfig{Jitter: resilience.JitterFull},
		Logf:            logger.Printf,
	})
	if err != nil {
		return err
	}
	defer g.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wimi-gateway: listening on %s (%d backends, expect %s)\n",
		ln.Addr(), len(urls), orNone(expected))

	httpSrv := &http.Server{Handler: g.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-serveErr:
			if err != nil && err != http.ErrServerClosed {
				return err
			}
			return nil
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if *expectModel == "" {
					fmt.Fprintf(out, "wimi-gateway: SIGHUP ignored (no -expect-model)\n")
					continue
				}
				digest, err := registry.SourceDigest(*expectModel)
				if err != nil {
					fmt.Fprintf(out, "wimi-gateway: re-reading -expect-model failed, keeping %s: %v\n",
						orNone(g.ExpectedVersion()), err)
					continue
				}
				g.SetExpectedVersion(digest)
				fmt.Fprintf(out, "wimi-gateway: expecting model %s cluster-wide\n", digest)
				continue
			}
			fmt.Fprintf(out, "wimi-gateway: %s received, draining...\n", sig)
			err := httpSrv.Close()
			g.Close()
			st := g.Stats()
			fmt.Fprintf(out, "wimi-gateway: drained (proxied %d, retried %d, hedged %d, spilled %d, shed %d, failed %d, coalesced %d, batches %d)\n",
				st.Proxied, st.Retried, st.Hedged, st.Spilled, st.Shed, st.Failed, st.Coalesced, st.BatchesSent)
			return err
		}
	}
}

func orNone(v string) string {
	if v == "" {
		return "any model"
	}
	return v
}
