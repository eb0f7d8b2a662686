package monitorhub

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/material"
	"repro/internal/monitor"
	"repro/internal/simulate"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// The three-liquid identifier every hub test shares (training once keeps the
// suite fast).
var (
	fixtureOnce sync.Once
	fixtureID   *core.Identifier
	fixtureErr  error
)

// Soy rather than oil as the third class: oil's dielectric contrast with air
// is too weak for the change-point detector to see its appearance reliably.
var fixtureLiquids = []string{material.Honey, material.PureWater, material.Soy}

func testIdentifier(t *testing.T) *core.Identifier {
	t.Helper()
	fixtureOnce.Do(func() {
		var sessions []*csi.Session
		var labels []string
		for li, name := range fixtureLiquids {
			sc := simulate.Default()
			m, err := material.PaperDatabase().Get(name)
			if err != nil {
				fixtureErr = err
				return
			}
			sc.Liquid = &m
			set, err := simulate.TrialSet(sc, 3, int64(4000+li*97))
			if err != nil {
				fixtureErr = err
				return
			}
			for _, s := range set {
				sessions = append(sessions, s)
				labels = append(labels, name)
			}
		}
		fixtureID, fixtureErr = core.TrainIdentifier(sessions, labels,
			core.IdentifierConfig{Pipeline: core.DefaultConfig()})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureID
}

// liquidStream builds a continuous packet stream: quiet, then the liquid,
// then quiet again — the single-NIC phase-continuous construction the
// monitor tests use.
func liquidStream(t *testing.T, liquid string, quietLen, targetLen int, seed int64) []csi.Packet {
	t.Helper()
	sc := simulate.Default()
	if liquid != "" {
		m, err := material.PaperDatabase().Get(liquid)
		if err != nil {
			t.Fatal(err)
		}
		sc.Liquid = &m
	}
	sc.Packets = 2*quietLen + targetLen
	s, err := simulate.Session(sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	var stream []csi.Packet
	stream = append(stream, s.Baseline.Packets[:quietLen]...)
	stream = append(stream, s.Target.Packets[:targetLen]...)
	stream = append(stream, s.Baseline.Packets[quietLen:2*quietLen]...)
	return stream
}

func testConfig(t *testing.T) Config {
	return Config{
		Identifier:      testIdentifier(t),
		Monitor:         monitor.Config{BaselinePackets: 30},
		ConfidenceFloor: 0.25,
		EpochInterval:   time.Hour, // tests roll epochs by hand
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil identifier should error")
	}
	if _, err := New(Config{Identifier: testIdentifier(t), ConfidenceFloor: 1.5}); err == nil {
		t.Error("out-of-range confidence floor should error")
	}
	if _, err := New(Config{Identifier: testIdentifier(t), Monitor: monitor.Config{BaselinePackets: 2}}); err == nil {
		t.Error("invalid monitor config should error")
	}
	h, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterSource("", transport.NewCaptureSource(&csi.Capture{}), 0); err == nil {
		t.Error("empty stream id should error")
	}
	if err := h.RegisterSource("a", transport.NewCaptureSource(&csi.Capture{}), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterSource("a", transport.NewCaptureSource(&csi.Capture{}), 0); err == nil {
		t.Error("duplicate stream id should error")
	}
	h.Close()
	if err := h.RegisterSource("b", transport.NewCaptureSource(&csi.Capture{}), 0); err == nil {
		t.Error("registering on a closed hub should error")
	}
}

// TestVerdictHysteresis drives the per-stream state machine directly: the
// first confident verdict confirms, a single disagreement does not swap,
// ConfirmVerdicts consecutive disagreements do, low-confidence verdicts are
// counted but never move the machine.
func TestVerdictHysteresis(t *testing.T) {
	h, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	st, err := h.newStream("tank-1")
	if err != nil {
		t.Fatal(err)
	}

	st.verdict("honey", 0.2, nil, 0) // below floor: ignored by hysteresis
	if st.confirmed != "" || st.lowConf != 1 {
		t.Fatalf("low-confidence verdict moved the machine: confirmed=%q lowConf=%d", st.confirmed, st.lowConf)
	}
	st.verdict("honey", 0.9, nil, 0)
	if st.confirmed != "honey" {
		t.Fatalf("first confident verdict should confirm, got %q", st.confirmed)
	}
	st.verdict("oil", 0.9, nil, 0) // disagreement #1: candidate only
	if st.confirmed != "honey" || st.candidate != "oil" || st.candidateRun != 1 {
		t.Fatalf("single disagreement swapped: confirmed=%q candidate=%q/%d", st.confirmed, st.candidate, st.candidateRun)
	}
	st.verdict("honey", 0.9, nil, 0) // agreement collapses the candidate
	if st.candidate != "" || st.candidateRun != 0 {
		t.Fatalf("agreement should clear the candidate, got %q/%d", st.candidate, st.candidateRun)
	}
	st.verdict("oil", 0.9, nil, 0)
	st.verdict("oil", 0.9, nil, 0) // ConfirmVerdicts(2) in a row: swap
	if st.confirmed != "oil" || st.swaps != 1 {
		t.Fatalf("two consecutive disagreements should swap: confirmed=%q swaps=%d", st.confirmed, st.swaps)
	}
	st.verdict("", 0, fmt.Errorf("degraded session"), 0) // classifier failure
	if st.failed != 1 || st.confirmed != "oil" {
		t.Fatalf("failed verdict mishandled: failed=%d confirmed=%q", st.failed, st.confirmed)
	}

	kinds := map[string]int{}
	for _, ev := range h.eventTail(0) {
		kinds[ev.Kind]++
	}
	if kinds["material-identified"] != 1 || kinds["material-swapped"] != 1 {
		t.Fatalf("event log wrong: %v", kinds)
	}
}

// TestShedOldestUnderBackpressure wedges the single identification worker
// and floods one stream: ingest must never block, pending must stay bounded
// at PendingPerStream with the OLDEST sessions shed, and after the worker is
// released every remaining session must still be identified.
func TestShedOldestUnderBackpressure(t *testing.T) {
	defer testutil.LeakCheck(t, 3)()
	release := make(chan struct{})
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.PendingPerStream = 2
	cfg.Segment = monitor.SegmenterOptions{Settle: 3, TargetLen: 15, BaselineLen: 15, Stride: 5}
	cfg.testHold = func(string) { <-release }
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.newStream("flooded")
	if err != nil {
		t.Fatal(err)
	}

	// Feed synchronously: the sliding window emits a session every 5
	// target packets while the wedged worker identifies none.
	for _, pkt := range liquidStream(t, material.Honey, 40, 200, 7) {
		if err := st.feed(pkt); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	sessions, shed, pend := st.sessions, st.shed, st.pendLen
	st.mu.Unlock()
	if sessions < 10 {
		t.Fatalf("stream produced only %d sessions; stimulus too weak", sessions)
	}
	if pend > 2 {
		t.Fatalf("pending %d exceeds PendingPerStream 2", pend)
	}
	if shed == 0 {
		t.Fatal("overload shed nothing — backpressure did not engage")
	}

	close(release)
	h.Close() // drain: the worker finishes everything still pending

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pendLen != 0 {
		t.Fatalf("%d sessions still pending after drain", st.pendLen)
	}
	// Conservation: every session was either shed or reached a verdict.
	if got := st.shed + st.identified + st.failed; got != st.sessions {
		t.Fatalf("session accounting broken: shed %d + identified %d + failed %d != sessions %d",
			st.shed, st.identified, st.failed, st.sessions)
	}
	if st.identified == 0 {
		t.Fatal("nothing identified after release")
	}
}

// TestVerdictAfterRemovalMovesOnlyCounters wedges the single worker while a
// honey appearance comes and goes, so every verdict of that appearance
// lands after its vessel-removed event. Those verdicts must be counted, but
// they describe a vessel that has gone: no material-identified event, no
// confirmed material, no last verdict. The next appearance, of another
// liquid, must then read as an identification and not as a swap.
func TestVerdictAfterRemovalMovesOnlyCounters(t *testing.T) {
	defer testutil.LeakCheck(t, 3)()
	release := make(chan struct{})
	delivered := make(chan struct{}, 64)
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.testHold = func(string) { <-release }
	cfg.testVerdict = func(string, core.Detail, error) { delivered <- struct{}{} }
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	st, err := h.newStream("vat")
	if err != nil {
		t.Fatal(err)
	}
	kinds := func() []string {
		var out []string
		for _, ev := range h.eventTail(0) {
			kind := ev.Kind
			if ev.Material != "" {
				kind += ":" + ev.Material
			}
			out = append(out, kind)
		}
		return out
	}

	for _, pkt := range liquidStream(t, material.Honey, 40, 60, 7) {
		if err := st.feed(pkt); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	waiting := st.sessions - st.shed
	st.mu.Unlock()
	if waiting == 0 {
		t.Fatal("the honey appearance emitted no session; stimulus too weak")
	}
	close(release)
	for i := uint64(0); i < waiting; i++ {
		select {
		case <-delivered:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d verdicts delivered", i, waiting)
		}
	}
	if got := fmt.Sprint(kinds()); got != "[target-appeared vessel-removed]" {
		t.Fatalf("events after the removed appearance's verdicts: %s", got)
	}
	st.mu.Lock()
	confirmed, last, counted := st.confirmed, st.lastMaterial, st.identified+st.failed
	st.mu.Unlock()
	if confirmed != "" || last != "" {
		t.Fatalf("verdicts of a removed vessel set confirmed %q, last verdict %q", confirmed, last)
	}
	if counted != waiting {
		t.Fatalf("%d verdicts counted, %d delivered", counted, waiting)
	}

	// The second appearance stays present (no trailing quiet), so Close
	// drains its verdicts while it is current.
	water := liquidStream(t, material.PureWater, 40, 60, 11)
	for _, pkt := range water[:100] {
		if err := st.feed(pkt); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	// Joining two simulations can add an appearance without a session
	// (target-appeared, vessel-removed) before the real one.
	var identified []string
	for _, kind := range kinds()[2:] {
		if kind != "target-appeared" && kind != "vessel-removed" {
			identified = append(identified, kind)
		}
	}
	if got := fmt.Sprint(identified); got != "[material-identified:pure-water]" {
		t.Fatalf("the next appearance's verdict events are %s (whole log %v)", got, kinds())
	}
}

// TestHubEndToEndSources registers in-process streams carrying different
// liquids and waits for the fleet to confirm each one; then checks removal
// events, epoch aggregation, and the HTTP surface.
func TestHubEndToEndSources(t *testing.T) {
	defer testutil.LeakCheck(t, 3)()
	cfg := testConfig(t)
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"vat-honey": material.Honey,
		"vat-water": material.PureWater,
		"vat-soy":   material.Soy,
	}
	// The sources are paced so each vessel is still present when its
	// verdicts land: a verdict that arrives after the removal moves only
	// the counters.
	const streamLen = 40 + 160 + 40
	for id, liquid := range want {
		capture := &csi.Capture{Packets: liquidStream(t, liquid, 40, 160, 11)}
		if err := h.RegisterSource(id, transport.NewCaptureSource(capture), 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	var snap FleetSnapshot
	for {
		snap = h.Snapshot("", 0)
		confirmed := 0
		for _, s := range snap.Streams {
			if s.Confirmed == want[s.ID] {
				confirmed++
			}
		}
		if confirmed == len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged: %+v", snap.Streams)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Streams end in a quiet stretch: removal events must arrive too, and
	// every packet is fed before the epochs roll.
	removalDeadline := time.Now().Add(10 * time.Second)
	for {
		kinds := map[string]int{}
		for _, ev := range h.eventTail(0) {
			kinds[ev.Kind]++
		}
		if kinds["vessel-removed"] == len(want) && h.Snapshot("", 0).Totals.Packets == uint64(len(want)*streamLen) {
			break
		}
		if time.Now().After(removalDeadline) {
			t.Fatalf("vessel removals missing: %v", kinds)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Epoch roll: activity lands in the closed epoch, a second roll with a
	// finished fleet shows (near-)zero new packets.
	h.rollEpoch()
	h.epmu.Lock()
	first := h.lastEpoch
	h.epmu.Unlock()
	if first.Packets == 0 || first.Sessions == 0 || first.Identified == 0 {
		t.Fatalf("first epoch empty: %+v", first)
	}
	h.rollEpoch()
	h.epmu.Lock()
	second := h.lastEpoch
	h.epmu.Unlock()
	if second.Epoch != first.Epoch+1 {
		t.Fatalf("epochs did not advance: %d then %d", first.Epoch, second.Epoch)
	}
	if second.Packets != 0 {
		t.Fatalf("finished fleet still produced %d packets in epoch %d", second.Packets, second.Epoch)
	}

	// HTTP surface.
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/fleet?events=8", nil)
	h.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/v1/fleet: %d: %s", rec.Code, rec.Body.String())
	}
	var body FleetSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Streams) != len(want) || body.Totals.Streams != len(want) {
		t.Fatalf("fleet body wrong: %d streams, totals %+v", len(body.Streams), body.Totals)
	}
	if len(body.Events) == 0 || len(body.Events) > 8 {
		t.Fatalf("event tail wrong: %d events", len(body.Events))
	}
	// Every vessel has gone: nothing is confirmed any more, and the event
	// log keeps each stream's identification.
	for _, s := range body.Streams {
		if s.Confirmed != "" {
			t.Errorf("stream %s still confirms %q after its vessel was removed", s.ID, s.Confirmed)
		}
	}
	identified := map[string]string{}
	for _, ev := range h.eventTail(0) {
		if ev.Kind == "material-identified" {
			identified[ev.Stream] = ev.Material
		}
	}
	for id, liquid := range want {
		if identified[id] != liquid {
			t.Errorf("stream %s identified as %q, want %q", id, identified[id], liquid)
		}
	}

	// ?stream= filter.
	rec = httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/fleet?stream=vat-honey", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Streams) != 1 || body.Streams[0].ID != "vat-honey" {
		t.Fatalf("stream filter wrong: %+v", body.Streams)
	}

	// Health endpoints: ready once every detector has learned (they all
	// have by now — each stream confirmed a material).
	rec = httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz: %d: %s", rec.Code, rec.Body.String())
	}

	h.Close()
	h.Close() // idempotent
}

// TestReadyzBeforeLearning: an empty hub (and one whose streams are still
// learning) is not ready.
func TestReadyzBeforeLearning(t *testing.T) {
	h, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz on empty hub: %d, want 503", rec.Code)
	}
	if _, err := h.newStream("cold"); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz while learning: %d, want 503", rec.Code)
	}
}

// TestEventRingBounded: the global event log never exceeds its capacity and
// keeps the newest entries.
func TestEventRingBounded(t *testing.T) {
	cfg := testConfig(t)
	cfg.EventLog = 8
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 50; i++ {
		h.recordEvent(Event{Stream: "s", Kind: "target-appeared"})
	}
	tail := h.eventTail(0)
	if len(tail) != 8 {
		t.Fatalf("event tail %d entries, want 8", len(tail))
	}
	if tail[len(tail)-1].Seq != 50 || tail[0].Seq != 43 {
		t.Fatalf("ring kept wrong window: seqs %d..%d", tail[0].Seq, tail[len(tail)-1].Seq)
	}
	if got := h.eventTail(3); len(got) != 3 || got[2].Seq != 50 {
		t.Fatalf("bounded tail wrong: %+v", got)
	}
}
