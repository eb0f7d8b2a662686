package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/transport"
	"repro/wimi"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil || !strings.Contains(err.Error(), "-model") {
		t.Errorf("missing -model: %v", err)
	}
	if err := run([]string{"-not-a-flag"}, os.Stdout); err == nil {
		t.Error("bad flag should error")
	}
	if err := run([]string{"-model", "/does/not/exist.json"}, os.Stdout); err == nil {
		t.Error("missing model file should error")
	}
}

// trainFixtureModel trains a small three-liquid model matching the hub's
// default simulated fleet and saves it under t.TempDir.
func trainFixtureModel(t *testing.T) string {
	t.Helper()
	var sessions []*wimi.Session
	var labels []string
	for li, name := range []string{wimi.Honey, wimi.PureWater, wimi.Soy} {
		m, err := wimi.Liquid(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := wimi.DefaultScenario()
		sc.Liquid = &m
		set, err := wimi.SimulateTrials(sc, 4, int64(li)*1_000_003+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range set {
			sessions = append(sessions, s)
			labels = append(labels, name)
		}
	}
	id, err := wimi.Train(sessions, labels, wimi.DefaultTrainingConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wimi.SaveIdentifier(id, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// seqSource endlessly replays a template with fresh sequence numbers drawn
// from a counter shared across connections, like a live NIC.
type seqSource struct {
	pkts []csi.Packet
	next int
	seq  *atomic.Uint32
}

func (ss *seqSource) Next() (csi.Packet, error) {
	pkt := ss.pkts[ss.next]
	ss.next = (ss.next + 1) % len(ss.pkts)
	pkt.Seq = ss.seq.Add(1)
	return pkt, nil
}

func startSourceServer(t *testing.T, addr string, pkts []csi.Packet, seq *atomic.Uint32) *transport.Server {
	t.Helper()
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr:     addr,
		NumAnt:   pkts[0].CSI.NumAntennas(),
		Carrier:  5.32e9,
		Interval: time.Millisecond,
		NewSource: func() (transport.PacketSource, error) {
			return &seqSource{pkts: pkts, seq: seq}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// fleetBody mirrors the /v1/fleet JSON shape the smoke test reads.
type fleetBody struct {
	Totals struct {
		Streams    int    `json:"streams"`
		Packets    uint64 `json:"packets"`
		Sessions   uint64 `json:"sessions"`
		Identified uint64 `json:"identified"`
		Shed       uint64 `json:"shed"`
	} `json:"totals"`
	Streams []struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		Confirmed string `json:"confirmed"`
		Pending   int    `json:"pending"`
	} `json:"streams"`
}

func getFleet(t *testing.T, client *http.Client, base string) (fleetBody, error) {
	t.Helper()
	var body fleetBody
	resp, err := client.Get(base + "/v1/fleet?events=0")
	if err != nil {
		return body, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != 200 {
		return body, fmt.Errorf("/v1/fleet: %d", resp.StatusCode)
	}
	return body, json.NewDecoder(resp.Body).Decode(&body)
}

// TestHubSmoke is the binary-level fleet drill behind `make hub-smoke`:
// wimi-hub drives 1000 simulated streams plus one real TCP source; the
// fleet must converge (≥95% of simulated streams confirm their liquid, the
// collected stream confirms honey), survive the TCP source being killed and
// restarted mid-run, and drain cleanly on SIGTERM with zero pending work.
func TestHubSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("hub smoke drill")
	}
	dir := t.TempDir()
	hubBin := buildBinary(t, dir, "wimi-hub", "repro/cmd/wimi-hub")
	model := trainFixtureModel(t)

	// One real TCP source streaming honey on a loop.
	tmpl, err := buildTemplate("honey", 40, 160, 77)
	if err != nil {
		t.Fatal(err)
	}
	seq := new(atomic.Uint32)
	srv := startSourceServer(t, "127.0.0.1:0", tmpl, seq)
	srvAddr := srv.Addr().String()
	defer func() { _ = srv.Close() }()

	proc := exec.Command(hubBin,
		"-addr", "127.0.0.1:0",
		"-model", model,
		"-streams", "1000",
		"-interval", "2ms",
		"-loop=false",
		"-collect", "line-a="+srvAddr,
		"-epoch", "500ms",
		// Cross-stream batching explicitly on: convergence must hold when
		// verdicts come out of shared classification batches.
		"-batch", "8",
	)
	stdout, err := proc.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	proc.Stderr = os.Stderr
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proc.Process.Kill() }()

	lineCh := make(chan string, 64)
	go func() {
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			lineCh <- scanner.Text()
		}
		close(lineCh)
	}()
	var addr string
	deadline := time.After(60 * time.Second)
	for addr == "" {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("wimi-hub exited before announcing its address")
			}
			if _, rest, found := strings.Cut(line, "listening on "); found {
				addr = strings.Fields(rest)[0]
			}
		case <-deadline:
			t.Fatal("timed out waiting for wimi-hub to listen")
		}
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}

	waitFleet := func(what string, budget time.Duration, ok func(fleetBody) bool) fleetBody {
		t.Helper()
		end := time.Now().Add(budget)
		var last fleetBody
		for {
			body, err := getFleet(t, client, base)
			if err == nil {
				last = body
				if ok(body) {
					return body
				}
			}
			if time.Now().After(end) {
				t.Fatalf("%s: never happened (totals %+v)", what, last.Totals)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// Convergence: ≥95% of the 1000 simulated streams confirm the liquid
	// their ID carries, and the collected stream confirms honey.
	snap := waitFleet("fleet convergence", 90*time.Second, func(b fleetBody) bool {
		sim, collected := 0, false
		for _, s := range b.Streams {
			if strings.HasPrefix(s.ID, "sim-") && s.Confirmed != "" && strings.HasSuffix(s.ID, s.Confirmed) {
				sim++
			}
			if s.ID == "line-a" && s.Confirmed == "honey" {
				collected = true
			}
		}
		return sim >= 950 && collected
	})
	if snap.Totals.Streams != 1001 {
		t.Fatalf("fleet has %d streams, want 1001", snap.Totals.Streams)
	}
	t.Logf("converged: %d streams, %d packets, %d sessions, %d identified, %d shed",
		snap.Totals.Streams, snap.Totals.Packets, snap.Totals.Sessions,
		snap.Totals.Identified, snap.Totals.Shed)

	// Kill the TCP source mid-run: the collected stream must go down while
	// the rest of the fleet stays up, then recover once the source is back
	// on the same address.
	_ = srv.Close()
	waitFleet("killed source flagged down", 30*time.Second, func(b fleetBody) bool {
		for _, s := range b.Streams {
			if s.ID == "line-a" {
				return s.State == "down"
			}
		}
		return false
	})
	srv = startSourceServer(t, srvAddr, tmpl, seq)
	waitFleet("killed source recovered", 60*time.Second, func(b fleetBody) bool {
		for _, s := range b.Streams {
			if s.ID == "line-a" {
				return s.State != "down" && s.Confirmed == "honey"
			}
		}
		return false
	})

	// Graceful drain: SIGTERM must flush pending work and exit zero.
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drained := false
	for line := range lineCh {
		if strings.Contains(line, "drained") {
			drained = true
		}
	}
	if err := proc.Wait(); err != nil {
		t.Fatalf("wimi-hub exit: %v", err)
	}
	if !drained {
		t.Fatal("wimi-hub never reported a drain summary")
	}
	fmt.Println("hub-smoke: ok")
}

// TestHubPprofEndpoint spawns the binary with -pprof on an ephemeral port
// and asserts the profiling index is reachable there — and only there: the
// separate listener keeps /debug/pprof/ off the fleet API port.
func TestHubPprofEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("binary spawn")
	}
	dir := t.TempDir()
	hubBin := buildBinary(t, dir, "wimi-hub", "repro/cmd/wimi-hub")
	model := trainFixtureModel(t)

	proc := exec.Command(hubBin,
		"-addr", "127.0.0.1:0",
		"-model", model,
		"-streams", "2",
		"-loop=false",
		"-batch", "4",
		"-pprof", "127.0.0.1:0",
	)
	stdout, err := proc.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	proc.Stderr = os.Stderr
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = proc.Process.Kill() }()

	var apiAddr, pprofURL string
	scanner := bufio.NewScanner(stdout)
	deadline := time.Now().Add(60 * time.Second)
	for (apiAddr == "" || pprofURL == "") && time.Now().Before(deadline) && scanner.Scan() {
		line := scanner.Text()
		if _, rest, found := strings.Cut(line, "listening on "); found {
			apiAddr = strings.Fields(rest)[0]
		}
		if _, rest, found := strings.Cut(line, "pprof on "); found {
			pprofURL = strings.Fields(rest)[0]
		}
	}
	if pprofURL == "" {
		t.Fatal("wimi-hub never announced its pprof listener")
	}
	if apiAddr == "" {
		t.Fatal("wimi-hub never announced its API listener")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(pprofURL)
	if err != nil {
		t.Fatalf("GET pprof index: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: status %d, want 200", resp.StatusCode)
	}
	// The fleet API port must NOT serve the profiler.
	resp, err = client.Get("http://" + apiAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET api /debug/pprof/: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("fleet API port serves /debug/pprof/; want it confined to -pprof listener")
	}
}

// TestHubListensAndServesHealth is the fast-path check (not skipped in
// -short): a tiny hub comes up, serves /healthz, and shuts down cleanly.
func TestHubListensAndServesHealth(t *testing.T) {
	model := trainFixtureModel(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-model", model, "-streams", "2", "-loop=false"}, os.Stdout)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	end := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
		}
		if time.Now().After(end) {
			t.Fatal("hub never served /healthz")
		}
		time.Sleep(50 * time.Millisecond)
	}
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	// Deliver SIGTERM to ourselves: run's signal handler owns the drain.
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run never drained after SIGTERM")
	}
}
