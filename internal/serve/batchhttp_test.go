package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/material"
)

func postBatch(t *testing.T, ts *httptest.Server, frame []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/identify/batch", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestBatchEndpointSlotsMatchSingleResponses is the byte-identity
// contract: slot i of a batch answer, plus the trailing newline the
// single path's encoder appends, must equal the exact bytes (and status,
// and model version) of a sequential POST /v1/identify with the same
// request — for successes AND for per-slot failures, malformed bodies
// included.
func TestBatchEndpointSlotsMatchSingleResponses(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Mix good sessions with slots that fail session decoding, JSON
	// decoding, or carry trailing bytes — their errors must also match the
	// single path bit for bit.
	good := encodeRequest(t, fx.sessions[1])
	raws := [][]byte{
		encodeRequest(t, fx.sessions[0]),
		[]byte(`{"baseline":"bm90IGEgdHJhY2U=","target":"bm90IGEgdHJhY2U="}`),
		good,
		[]byte(`{},{}`),
		good[:len(good)/2],
		append(slices.Clip(good), "junk"...),
		encodeRequest(t, fx.sessions[0]),
	}
	resp, body := postBatch(t, ts, AppendBatchFrame(nil, raws))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(ModelVersionHeader); got != fx.registry.Active().Version {
		t.Errorf("batch %s = %q, want active version", ModelVersionHeader, got)
	}
	var out BatchIdentifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(raws) {
		t.Fatalf("%d results for %d slots", len(out.Results), len(raws))
	}

	for i, raw := range raws {
		single, err := ts.Client().Post(ts.URL+"/v1/identify", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		singleBody, err := io.ReadAll(single.Body)
		_ = single.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		slot := out.Results[i]
		if slot.Status != single.StatusCode {
			t.Errorf("slot %d status %d, single path %d", i, slot.Status, single.StatusCode)
		}
		relayed := append(append([]byte(nil), slot.Body...), '\n')
		if !bytes.Equal(relayed, singleBody) {
			t.Errorf("slot %d body+newline != single response:\n slot:   %q\n single: %q", i, relayed, singleBody)
		}
		if slot.ModelVersion != single.Header.Get(ModelVersionHeader) {
			t.Errorf("slot %d modelVersion %q, single header %q", i, slot.ModelVersion, single.Header.Get(ModelVersionHeader))
		}
	}
}

// TestBatchEndpointSlotsRunAsOneBatch pins multi-item admission: on an
// idle server a k-slot request is admitted whole and counted once, at
// BatchSizes[k-1], for k = 2, 8 and 11, and no other bucket moves.
func TestBatchEndpointSlotsRunAsOneBatch(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, slots := range []int{2, 8, 11} {
		raws := make([][]byte, slots)
		for i := range raws {
			raws[i] = encodeRequest(t, fx.sessions[i%len(fx.sessions)])
		}
		want := s.Stats().BatchSizes
		want[slots-1]++
		resp, body := postBatch(t, ts, AppendBatchFrame(nil, raws))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d slots: status %d: %s", slots, resp.StatusCode, body)
		}
		var out BatchIdentifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		for i, slot := range out.Results {
			if slot.Status != http.StatusOK {
				t.Fatalf("%d slots: slot %d status %d: %s", slots, i, slot.Status, slot.Body)
			}
		}
		if got := s.Stats().BatchSizes; !slices.Equal(got, want) {
			t.Errorf("%d slots: batch sizes %v, want %v", slots, got, want)
		}
	}
}

func TestBatchEndpointRejectsMalformedAndOversize(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Every way a frame can be bad is in frame_test.go; these show the
	// handler turns a rejected frame into one 400, the JSON envelope of
	// earlier builds included.
	over := make([][]byte, MaxBatchSlots+1)
	for i := range over {
		over[i] = []byte(`{}`)
	}
	for name, frame := range map[string][]byte{
		"empty batch":   AppendBatchFrame(nil, nil),
		"json envelope": []byte(`{"requests":[{}]}`),
		"oversize":      AppendBatchFrame(nil, over),
	} {
		if resp, body := postBatch(t, ts, frame); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

func TestBatchEndpointDrainingAnswers503(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Shutdown()
	frame := AppendBatchFrame(nil, [][]byte{encodeRequest(t, fx.sessions[0])})
	if resp, body := postBatch(t, ts, frame); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining batch: status %d (%s), want 503", resp.StatusCode, body)
	}
}
