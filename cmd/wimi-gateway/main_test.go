package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/wimi"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil || !strings.Contains(err.Error(), "-backends") {
		t.Errorf("missing -backends: %v", err)
	}
	if err := run([]string{"-backends", "not-a-url"}, os.Stdout); err == nil {
		t.Error("relative backend URL should error")
	}
	if err := run([]string{"-backends", "http://127.0.0.1:1,http://127.0.0.1:1"}, os.Stdout); err == nil {
		t.Error("duplicate backends should error")
	}
	if err := run([]string{"-backends", "http://127.0.0.1:1", "-expect-model", "/does/not/exist.json"}, os.Stdout); err == nil {
		t.Error("missing -expect-model source should error")
	}
	if err := run([]string{"-not-a-flag"}, os.Stdout); err == nil {
		t.Error("bad flag should error")
	}
}

// trainFixtureModel trains a tiny model and saves it under t.TempDir.
func trainFixtureModel(t *testing.T) string {
	t.Helper()
	var sessions []*wimi.Session
	var labels []string
	for li, name := range []string{wimi.PureWater, wimi.Honey} {
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

// daemon is one child process whose stdout announces a listen address.
type daemon struct {
	proc *exec.Cmd
	addr string
}

// startDaemon launches bin with args and waits for "listening on ADDR"
// on stdout.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	proc := exec.Command(bin, args...)
	stdout, err := proc.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	proc.Stderr = os.Stderr
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proc.Process.Kill() })

	lineCh := make(chan string, 16)
	go func() {
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			lineCh <- scanner.Text()
		}
		close(lineCh)
	}()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("%s exited before announcing its address", filepath.Base(bin))
			}
			if _, rest, found := strings.Cut(line, "listening on "); found {
				// Drain the rest of stdout so the child never blocks on a
				// full pipe.
				go func() {
					for range lineCh {
					}
				}()
				return &daemon{proc: proc, addr: strings.Fields(rest)[0]}
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s to listen", filepath.Base(bin))
		}
	}
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

// TestClusterSmoke is the binary-level cluster drill behind `make
// cluster-smoke`: a gateway over two wimi-serve backends — running the
// batched data plane (-batch 8) — takes a wimi-load burst while one
// backend is SIGKILLed mid-run. The gateway
// must keep answering around the dead backend: the load report ends
// with zero failed requests, and the bench JSON carries the
// GatewayIdentify entries.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke burst")
	}
	dir := t.TempDir()
	gatewayBin := buildBinary(t, dir, "wimi-gateway", "repro/cmd/wimi-gateway")
	serveBin := buildBinary(t, dir, "wimi-serve", "repro/cmd/wimi-serve")
	loadBin := buildBinary(t, dir, "wimi-load", "repro/cmd/wimi-load")
	model := trainFixtureModel(t)

	b1 := startDaemon(t, serveBin, "-addr", "127.0.0.1:0", "-model", model)
	b2 := startDaemon(t, serveBin, "-addr", "127.0.0.1:0", "-model", model)
	gw := startDaemon(t, gatewayBin,
		"-addr", "127.0.0.1:0",
		"-backends", fmt.Sprintf("http://%s,http://%s", b1.addr, b2.addr),
		"-expect-model", model,
		"-probe-interval", "100ms",
		"-retries", "4",
		"-deadline", "5s",
		"-batch", "8",
	)
	base := "http://" + gw.addr

	// Wait until the gateway has probed both backends routable.
	client := &http.Client{Timeout: 5 * time.Second}
	waitDeadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(waitDeadline) {
			t.Fatal("gateway never saw both backends routable")
		}
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			var rz struct {
				Ready    bool `json:"ready"`
				Routable int  `json:"routable"`
			}
			err2 := json.NewDecoder(resp.Body).Decode(&rz)
			_ = resp.Body.Close()
			if err2 == nil && rz.Ready && rz.Routable == 2 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Mid-burst, SIGKILL one backend: no drain, no goodbye — the gateway
	// has to notice and route around it.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(700 * time.Millisecond)
		_ = b2.proc.Process.Kill()
	}()

	load := exec.Command(loadBin,
		"-target", base,
		"-duration", "2s",
		"-concurrency", "4",
		"-sessions", "4",
	)
	out, err := load.CombinedOutput()
	if err != nil {
		t.Fatalf("wimi-load: %v\n%s", err, out)
	}
	<-killDone

	re := regexp.MustCompile(`wimi-load: ok=(\d+) shed=(\d+) failed=(\d+) dropped=(\d+)`)
	m := re.FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("no parseable summary in wimi-load output:\n%s", out)
	}
	ok, _ := strconv.Atoi(m[1])
	failed, _ := strconv.Atoi(m[3])
	if ok == 0 {
		t.Fatalf("zero requests answered through the burst:\n%s", out)
	}
	if failed != 0 {
		t.Fatalf("%d failed requests while a backend died mid-burst (want 0):\n%s", failed, out)
	}

	// The cluster status must show the dead backend unhealthy and the
	// survivor carrying the traffic.
	resp, err := client.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cluster struct {
		Backends []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
			Served  uint64 `json:"served"`
		} `json:"backends"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cluster)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var survivorServed uint64
	for _, b := range cluster.Backends {
		if b.URL == "http://"+b1.addr {
			survivorServed = b.Served
		}
	}
	if survivorServed == 0 {
		t.Errorf("surviving backend served nothing: %+v", cluster.Backends)
	}

	// Graceful gateway shutdown on SIGTERM with exit 0.
	if err := gw.proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- gw.proc.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wimi-gateway exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("wimi-gateway did not drain within 15s of SIGTERM")
	}
	_ = b1.proc.Process.Signal(syscall.SIGTERM)
	fmt.Println("cluster-smoke: ok")
}
