package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/serve"
)

// proc is one running binary of the system under test.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once the process has been waited for
}

// startProc launches bin on a free port and returns once the binary has
// announced its listen address. The process is killed if the harness dies
// first.
func startProc(name, bin string, args ...string) (*proc, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	select {
	case addr := <-w.addr:
		p.url = "http://" + addr
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening", name)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce a listen address within 30s", name)
	}
}

// addrWatcher is a process's stdout: it picks the address out of the
// "<binary>: listening on <addr> ..." line both daemons print, and discards
// everything.
type addrWatcher struct {
	mu   sync.Mutex
	line []byte
	done bool
	addr chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	for {
		i := bytes.IndexByte(w.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		if _, rest, ok := strings.Cut(string(w.line[:i]), "listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			w.addr <- addr
			w.done, w.line = true, nil
			return len(p), nil
		}
		w.line = w.line[i+1:]
	}
}

// waitReady polls GET /readyz until it answers 200.
func (p *proc) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready", p.name)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v", p.name, timeout)
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// stop asks the process to drain (SIGTERM) and waits for it to exit, killing
// it if the drain takes longer than 15s.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// sut is the set of processes an HTTP workload drives.
type sut struct {
	entry    *proc   // where requests go
	backends []*proc // the wimi-serve processes
	gateway  *proc   // nil when requests go straight to one wimi-serve
}

func (s *sut) procs() []*proc {
	if s.gateway == nil {
		return s.backends
	}
	return append(append([]*proc(nil), s.backends...), s.gateway)
}

// stop drains every process, gateway first.
func (s *sut) stop() {
	if s.gateway != nil {
		s.gateway.stop()
	}
	for _, b := range s.backends {
		b.stop()
	}
}

// launchSUT starts the system under test cold, from a model already on disk,
// and returns it with the time from the first process start until the entry
// answers GET /readyz with 200. A cluster starts its two wimi-serve backends
// together, then the gateway once both are ready, as an operator bringing
// the cluster up would; the gateway is ready once its first probe has found
// a routable backend. Only the flags the workloads name are set, so a later
// change may delete any tuning flag without breaking the benchmark.
func launchSUT(target, binDir, model string) (*sut, time.Duration, error) {
	start := time.Now()
	n := 1
	if target == "cluster" {
		n = 2
	}
	s := &sut{}
	for i := 0; i < n; i++ {
		p, err := startProc(fmt.Sprintf("wimi-serve-%d", i), filepath.Join(binDir, "wimi-serve"), "-model", model)
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.backends = append(s.backends, p)
	}
	for _, b := range s.backends {
		if err := b.waitReady(30 * time.Second); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	s.entry = s.backends[0]
	if target == "cluster" {
		urls := make([]string, len(s.backends))
		for i, b := range s.backends {
			urls[i] = b.url
		}
		gw, err := startProc("wimi-gateway", filepath.Join(binDir, "wimi-gateway"),
			"-backends", strings.Join(urls, ","), "-batch", "8")
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.gateway, s.entry = gw, gw
		if err := gw.waitReady(30 * time.Second); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

// cpuSeconds returns the user+system CPU time process pid (or "self") has
// used, from /proc/<pid>/stat in USER_HZ (100/s) ticks.
func cpuSeconds(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMiB returns process pid's (or "self"'s) peak resident set size,
// VmHWM, in MiB.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// statsClient reads the binaries' public stats. It is separate from the load
// client so an operator read never takes a load connection.
var statsClient = &http.Client{Timeout: 5 * time.Second}

func fetchJSON(url string, v any) error {
	resp, err := statsClient.Get(url)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sutSnapshot is one reading of everything the system under test exposes
// about itself: per-process CPU and the public counters.
type sutSnapshot struct {
	cpu     map[*proc]float64
	serve   []serve.Stats
	gateway gateway.Stats
}

func (s *sut) snapshot() (sutSnapshot, error) {
	snap := sutSnapshot{cpu: map[*proc]float64{}}
	for _, p := range s.procs() {
		c, err := cpuSeconds(strconv.Itoa(p.pid()))
		if err != nil {
			return snap, err
		}
		snap.cpu[p] = c
	}
	for _, b := range s.backends {
		var r struct {
			Stats serve.Stats `json:"stats"`
		}
		if err := fetchJSON(b.url+"/readyz", &r); err != nil {
			return snap, err
		}
		snap.serve = append(snap.serve, r.Stats)
	}
	if s.gateway != nil {
		var r struct {
			Stats gateway.Stats `json:"stats"`
		}
		if err := fetchJSON(s.gateway.url+"/v1/cluster", &r); err != nil {
			return snap, err
		}
		snap.gateway = r.Stats
	}
	return snap, nil
}
