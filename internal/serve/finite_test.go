package serve

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/material"
)

// TestNonFiniteCSINeverGetsAVerdict is the serving half of the
// finite-input contract: a capture with a non-finite CSI value at a
// subcarrier the model uses answers 422 on /v1/identify and in a batch
// slot, and every such answer counts as failed, never served.
func TestNonFiniteCSINeverGetsAVerdict(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey, material.Oil})
	good, err := core.CalibrateSubcarriers(fx.sessions, core.AntennaPair{A: 0, B: 1}, core.DefaultConfig().GoodSubcarriers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clean := encodeRequest(t, fx.sessions[0])
	for name, v := range map[string]complex128{
		"+Inf":   complex(math.Inf(1), 0),
		"-Inf·i": complex(0, math.Inf(-1)),
		"NaN":    complex(math.NaN(), 0),
	} {
		bad := *fx.sessions[0]
		bad.Target.Packets = append([]csi.Packet(nil), bad.Target.Packets...)
		bad.Target.Packets[3].CSI = bad.Target.Packets[3].CSI.Clone()
		bad.Target.Packets[3].CSI.Values[0][good[0]] = v
		body := encodeRequest(t, &bad)

		before := s.Stats()
		if resp, _ := postIdentify(t, ts, body); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: /v1/identify status %d, want 422", name, resp.StatusCode)
		}
		resp, raw := postBatch(t, ts, AppendBatchFrame(nil, [][]byte{clean, body, clean}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch status %d", name, resp.StatusCode)
		}
		var out BatchIdentifyResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{http.StatusOK, http.StatusUnprocessableEntity, http.StatusOK} {
			if out.Results[i].Status != want {
				t.Fatalf("%s: batch slot %d status %d, want %d: %s", name, i, out.Results[i].Status, want, out.Results[i].Body)
			}
		}
		after := s.Stats()
		if got := after.Failed - before.Failed; got != 2 {
			t.Errorf("%s: failed rose by %d, want 2 (the single, one slot)", name, got)
		}
		if got := after.Served - before.Served; got != 2 {
			t.Errorf("%s: served rose by %d, want 2 (the clean slots)", name, got)
		}
	}
}

// TestNonFiniteCarrierAnswers400 pins the carrier half of the
// finite-input contract: a trace pair whose headers say +Inf is a bad
// request on /v1/identify and in a batch slot, never a verdict.
func TestNonFiniteCarrierAnswers400(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sess := fx.sessions[0]
	infHeader := func(c *csi.Capture) []byte {
		tr := encodeTrace(t, c, sess.Carrier)
		binary.LittleEndian.PutUint64(tr[8:16], math.Float64bits(math.Inf(1)))
		return tr
	}
	body, err := json.Marshal(IdentifyRequest{Baseline: infHeader(&sess.Baseline), Target: infHeader(&sess.Target)})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postIdentify(t, ts, body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/identify: status %d, want 400", resp.StatusCode)
	}
	clean := encodeRequest(t, sess)
	resp, raw := postBatch(t, ts, AppendBatchFrame(nil, [][]byte{clean, body, clean}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out BatchIdentifyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{http.StatusOK, http.StatusBadRequest, http.StatusOK} {
		if out.Results[i].Status != want {
			t.Errorf("batch slot %d: status %d, want %d: %s", i, out.Results[i].Status, want, out.Results[i].Body)
		}
	}
	if st := s.Stats(); st.Served != 2 {
		t.Errorf("served %d, want only the 2 clean slots", st.Served)
	}
}

// TestWriteJSONAnswers500OnEncodeError pins that the status follows the
// encoding: a value the encoder rejects answers 500 with the encoder's
// error, never the intended status over an empty body.
func TestWriteJSONAnswers500OnEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, IdentifyResponse{Material: "pure-water", Omega: math.NaN(), Confidence: 1})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"error":"encoding response: json: unsupported value: NaN"`) {
		t.Fatalf("body %q lacks the encoder's error", body)
	}
}
