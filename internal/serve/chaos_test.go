package serve

import (
	"bytes"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/material"
	"repro/internal/testutil"
)

// faultyListener wraps every accepted conn in the faults proxy, so the
// server's response writes suffer stalls, truncation, corruption and
// forced resets — the client side of the link is hostile.
type faultyListener struct {
	net.Listener
	profile faults.Profile
	seed    atomic.Int64
}

func (fl *faultyListener) Accept() (net.Conn, error) {
	c, err := fl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc, err := faults.WrapConn(c, fl.profile, fl.seed.Add(1))
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return fc, nil
}

// chaosProfile injects every stream fault at once, mildly enough that a
// healthy fraction of requests still completes.
func chaosProfile() faults.Profile {
	return faults.Profile{
		Name:           "serve-chaos",
		CorruptProb:    0.05,
		TruncateProb:   0.08,
		StallProb:      0.10,
		StallDuration:  3 * time.Millisecond,
		DisconnectProb: 0.04,
	}
}

// TestChaosClientsNoGoroutineLeak hammers the service through the faults
// proxy with concurrent clients, then drains and asserts the goroutine
// count returns to its baseline — no request, however mangled its
// connection, may strand a worker.
func TestChaosClientsNoGoroutineLeak(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	leakCheck := testutil.LeakCheck(t, 3)

	s, err := New(Config{
		Registry:       fx.registry,
		QueueDepth:     16,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &faultyListener{Listener: ln, profile: chaosProfile()}
	httpSrv := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() {
		_ = httpSrv.Serve(fl)
		close(serveDone)
	}()

	body := encodeRequest(t, fx.sessions[0])
	url := "http://" + ln.Addr().String() + "/v1/identify"

	const clients = 12
	const perClient = 6
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Second}
			defer client.CloseIdleConnections()
			for i := 0; i < perClient; i++ {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1) // injected disconnect/corruption — expected
					continue
				}
				if resp.StatusCode == http.StatusOK {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
				_ = resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	// Even through chaos, a decent fraction must have completed.
	if ok.Load() == 0 {
		t.Errorf("no request survived the chaos profile (%d failed)", failed.Load())
	}

	// Drain: force-close the HTTP server (it owns the faulted conns, some
	// of which are mid-stall), then drain the service.
	_ = httpSrv.Close()
	<-serveDone
	s.Shutdown()

	// Goroutines must return to the baseline.
	leakCheck()
}

// TestChaosSheddingStillSignals429 holds the pipeline while chaos clients
// pile on and asserts saturation surfaces as 429s (shed counter moves)
// instead of unbounded queueing or blocked accepts.
func TestChaosSheddingStillSignals429(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{
		Registry:       fx.registry,
		Workers:        1,
		QueueDepth:     2,
		RequestTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.holdSlot = func() { <-release }

	// Mild profile: stalls only, so status codes still arrive intact.
	profile := faults.Profile{Name: "stalls", StallProb: 0.2, StallDuration: 2 * time.Millisecond}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &faultyListener{Listener: ln, profile: profile}
	httpSrv := &http.Server{Handler: s.Handler()}
	go func() { _ = httpSrv.Serve(fl) }()
	defer func() {
		close(release)
		_ = httpSrv.Close()
		s.Shutdown()
	}()

	body := encodeRequest(t, fx.sessions[0])
	url := "http://" + ln.Addr().String() + "/v1/identify"

	var saw429 atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: time.Second}
			defer client.CloseIdleConnections()
			for i := 0; i < 5; i++ {
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					saw429.Store(true)
				}
				_ = resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if !saw429.Load() {
		t.Error("saturated chaos run never shed with 429")
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Error("shed counter did not move under saturation")
	}
}
