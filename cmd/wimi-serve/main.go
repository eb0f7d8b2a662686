// wimi-serve is the online identification daemon: it loads a trained
// model from a versioned registry (a model file or a directory of model
// files) and answers identification requests over HTTP/JSON, each on its
// own goroutine behind a counting semaphore of pipeline slots, with
// bounded admission (429 + Retry-After when saturated), per-request
// deadlines and graceful drain on SIGINT/SIGTERM. SIGHUP (or
// POST /v1/reload) hot-swaps the model without dropping in-flight
// requests.
//
// Offline→online workflow:
//
//	wimi-sim -save-model /models/lab.json        # train offline, persist
//	wimi-serve -model /models/lab.json           # serve identifications
//	curl -d @request.json localhost:8077/v1/identify
//
// Endpoints:
//
//	POST /v1/identify  {baseline, target}  → {material, omega, confidence, modelVersion}
//	POST /v1/reload    re-resolve + hot-swap the model
//	GET  /v1/model     active model version + history
//	GET  /healthz      liveness
//	GET  /readyz       readiness (model loaded, not draining) + stats
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/registry"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wimi-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("wimi-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8077", "listen address (port 0 picks a free port)")
		modelPath  = fs.String("model", "", "model file or directory of model files (required)")
		queueDepth = fs.Int("queue", 64, "requests that may wait for a pipeline slot; beyond them requests shed with 429")
		deadline   = fs.Duration("deadline", 10*time.Second, "per-request deadline (queueing + pipeline)")
		workers    = fs.Int("workers", 0, "pipelines that run at once (0 = GOMAXPROCS)")
		drainWait  = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("-model is required (train one with: wimi-sim -save-model model.json)")
	}
	reg, err := registry.Open(*modelPath)
	if err != nil {
		return err
	}
	s, err := serve.New(serve.Config{
		Registry:       reg,
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		RequestTimeout: *deadline,
	})
	if err != nil {
		return err
	}

	// The profiling listener is opt-in and separate from the service
	// address, so profiles are never reachable through the public port. An
	// explicit mux carries only the pprof handlers — nothing rides along on
	// http.DefaultServeMux.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(out, "wimi-serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, pm); err != nil {
				fmt.Fprintf(os.Stderr, "wimi-serve: pprof listener: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	m := reg.Active()
	fmt.Fprintf(out, "wimi-serve: listening on %s (model %s from %s)\n",
		ln.Addr(), m.Version, m.Path)

	httpSrv := &http.Server{Handler: s.Handler()}
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
				if fresh, err := reg.Reload(); err != nil {
					fmt.Fprintf(out, "wimi-serve: reload failed, keeping %s: %v\n",
						reg.Active().Version, err)
				} else {
					fmt.Fprintf(out, "wimi-serve: model %s active (from %s)\n",
						fresh.Version, fresh.Path)
				}
				continue
			}
			// Graceful drain: stop accepting, finish what was admitted.
			fmt.Fprintf(out, "wimi-serve: %s received, draining...\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
			err := httpSrv.Shutdown(ctx)
			cancel()
			s.Shutdown()
			st := s.Stats()
			fmt.Fprintf(out, "wimi-serve: drained (served %d, shed %d, timeouts %d, failed %d)\n",
				st.Served, st.Shed, st.Timeouts, st.Failed)
			return err
		}
	}
}
