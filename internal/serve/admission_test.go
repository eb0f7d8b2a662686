package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/material"
)

// pastDeadline is a context whose deadline has passed but which nothing
// has cancelled yet.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestAdmissionBoundsAndCounters drives admission to its bound with every
// pipeline slot held. With Workers 2 and QueueDepth 3, exactly 2
// pipelines run and 3 requests wait; beyond them a single request gets
// 429 with Retry-After and a frame sheds per slot. A request whose
// deadline passes while it waits gets 504 and never enters a pipeline;
// one whose deadline passes inside its pipeline gets 504, never the late
// verdict, even before its context is cancelled. After release every 200
// equals IdentifyDetailedP's answer bit for bit, and served + shed +
// timeouts + failed reconcile exactly with the 200, 429, 504 and 422
// answers.
func TestAdmissionBoundsAndCounters(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey, material.Oil})
	s, err := New(Config{Registry: fx.registry, Workers: 2, QueueDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	hold := holdSlots(s)
	defer hold.unblock()
	h := s.Handler()
	model := fx.registry.Active()

	bodies := make([][]byte, len(fx.sessions))
	want := make([]IdentifyResponse, len(fx.sessions))
	for i, sess := range fx.sessions {
		bodies[i] = encodeRequest(t, sess)
		det, err := model.Identifier.IdentifyDetailedP(core.NewPipeline(), sess, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = IdentifyResponse{Material: det.Material, Omega: det.Omega, Confidence: det.Confidence, ModelVersion: model.Version}
	}

	// outcome is one answer: a single request's, or one batch slot's.
	type outcome struct {
		session    int // index into bodies; -1 for the non-finite body
		status     int
		retryAfter string
		body       []byte
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	record := func(o outcome) outcome {
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
		return o
	}
	serveHTTP := func(ctx context.Context, path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	single := func(ctx context.Context, i int, body []byte) outcome {
		rec := serveHTTP(ctx, "/v1/identify", body)
		return record(outcome{session: i, status: rec.Code, retryAfter: rec.Header().Get("Retry-After"), body: rec.Body.Bytes()})
	}
	background := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			single(context.Background(), i, bodies[i])
		}()
	}

	// Two requests take both slots.
	background(0)
	background(1)
	waitFor(t, hold, "2 running pipelines", func() bool { return hold.running.Load() == 2 })

	// A request whose deadline passes while it waits never gets a slot.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	expired := single(ctx, 2, bodies[2])
	cancel()
	if expired.status != http.StatusGatewayTimeout || !bytes.Contains(expired.body, []byte("while queued")) {
		t.Fatalf("deadline passed while queued: status %d, body %s", expired.status, expired.body)
	}

	// Two requests wait, leaving room for one: a 3-slot frame admits its
	// first slot and sheds the other two.
	background(3)
	background(4)
	waitFor(t, hold, "2 waiting requests", func() bool { return s.adm.unfinished() == 4 })
	frame := make(chan BatchIdentifyResponse, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := serveHTTP(context.Background(), "/v1/identify/batch", AppendBatchFrame(nil, bodies[:3]))
		var out BatchIdentifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Errorf("batch answer %d %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		for i, slot := range out.Results {
			record(outcome{session: i, status: slot.Status, retryAfter: strconv.FormatInt(slot.RetryAfterSec, 10), body: append(slot.Body, '\n')})
		}
		frame <- out
	}()
	waitFor(t, hold, "the frame's admitted slot", func() bool { return s.adm.unfinished() == 5 })

	// Full: 2 running, 3 waiting. Further requests shed.
	for i := 0; i < 2; i++ {
		if o := single(context.Background(), i, bodies[i]); o.status != http.StatusTooManyRequests || o.retryAfter == "" {
			t.Errorf("request beyond the bound: status %d, Retry-After %q", o.status, o.retryAfter)
		}
	}
	if got, q := hold.running.Load(), s.queued(); got != 2 || q != 3 {
		t.Errorf("saturated: %d running, %d queued; want 2 and 3", got, q)
	}

	hold.unblock()
	wg.Wait()
	if p := hold.peak.Load(); p != 2 {
		t.Errorf("at most %d pipelines ran at once, want exactly 2", p)
	}
	if n := hold.entered.Load(); n != 5 {
		t.Errorf("%d requests entered a pipeline, want the 5 admitted ones that did not expire", n)
	}
	out := <-frame
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests, http.StatusTooManyRequests} {
		if out.Results[i].Status != want {
			t.Errorf("frame slot %d: status %d, want %d", i, out.Results[i].Status, want)
		}
	}
	for _, slot := range out.Results[1:] {
		if slot.RetryAfterSec < 1 {
			t.Errorf("shed slot carries Retry-After %ds, want >= 1", slot.RetryAfterSec)
		}
	}

	// A deadline that passes inside the pipeline answers 504, not the
	// verdict the pipeline produced late.
	late := holdSlots(s)
	ctx, cancel = context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	lateDone := make(chan outcome, 1)
	go func() { lateDone <- single(ctx, 0, bodies[0]) }()
	waitFor(t, late, "the late request's pipeline", func() bool { return late.entered.Load() == 1 })
	<-ctx.Done()
	late.unblock()
	if o := <-lateDone; o.status != http.StatusGatewayTimeout || !bytes.Equal(o.body, []byte("{\"error\":\"request deadline exceeded\"}\n")) {
		t.Errorf("deadline passed inside the pipeline: status %d, body %s", o.status, o.body)
	}
	// The same holds before the context is cancelled: a child context
	// stays uncancelled between its parent's timer closing Done and
	// cancelling the children.
	if o := single(pastDeadline{context.Background()}, 0, bodies[0]); o.status != http.StatusGatewayTimeout {
		t.Errorf("deadline passed, context not yet cancelled: status %d, body %s", o.status, o.body)
	}

	// A capture with a non-finite value at a used subcarrier fails.
	good, err := core.CalibrateSubcarriers(fx.sessions, core.AntennaPair{A: 0, B: 1}, core.DefaultConfig().GoodSubcarriers)
	if err != nil {
		t.Fatal(err)
	}
	bad := *fx.sessions[0]
	bad.Target.Packets = append([]csi.Packet(nil), bad.Target.Packets...)
	bad.Target.Packets[3].CSI = bad.Target.Packets[3].CSI.Clone()
	bad.Target.Packets[3].CSI.Values[0][good[0]] = complex(math.Inf(1), 0)
	if o := single(context.Background(), -1, encodeRequest(t, &bad)); o.status != http.StatusUnprocessableEntity {
		t.Errorf("non-finite capture: status %d, want 422", o.status)
	}

	count := map[int]uint64{}
	for _, o := range outcomes {
		count[o.status]++
		if o.status != http.StatusOK {
			continue
		}
		var got IdentifyResponse
		if err := json.Unmarshal(o.body, &got); err != nil {
			t.Fatal(err)
		}
		if got != want[o.session] {
			t.Errorf("session %d: answer %+v, IdentifyDetailedP %+v", o.session, got, want[o.session])
		}
	}
	st := s.Stats()
	if st.Served != count[http.StatusOK] || st.Shed != count[http.StatusTooManyRequests] ||
		st.Timeouts != count[http.StatusGatewayTimeout] || st.Failed != count[http.StatusUnprocessableEntity] {
		t.Errorf("served/shed/timeouts/failed %d/%d/%d/%d, answers 200/429/504/422 %d/%d/%d/%d",
			st.Served, st.Shed, st.Timeouts, st.Failed,
			count[http.StatusOK], count[http.StatusTooManyRequests], count[http.StatusGatewayTimeout], count[http.StatusUnprocessableEntity])
	}
	if sum := st.Served + st.Shed + st.Timeouts + st.Failed; sum != uint64(len(outcomes)) {
		t.Errorf("counters sum to %d, %d answers were given", sum, len(outcomes))
	}
}
