package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/material"
)

func postBatch(t *testing.T, ts *httptest.Server, payload []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/identify/batch", "application/json", bytes.NewReader(payload))
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
// request — for successes AND for per-slot failures.
func TestBatchEndpointSlotsMatchSingleResponses(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	s, err := New(Config{Registry: fx.registry, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Mix good sessions with a slot that decodes as JSON but fails session
	// decoding — its error must also match the single path bit for bit.
	raws := []json.RawMessage{
		encodeRequest(t, fx.sessions[0]),
		[]byte(`{"baseline":"bm90IGEgdHJhY2U=","target":"bm90IGEgdHJhY2U="}`),
		encodeRequest(t, fx.sessions[1]),
		encodeRequest(t, fx.sessions[0]),
	}
	payload, err := json.Marshal(BatchIdentifyRequest{Requests: raws})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postBatch(t, ts, payload)
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
		if slot.Status == http.StatusOK && slot.ModelVersion != single.Header.Get(ModelVersionHeader) {
			t.Errorf("slot %d modelVersion %q, single header %q", i, slot.ModelVersion, single.Header.Get(ModelVersionHeader))
		}
	}
}

// TestBatchEndpointSlotsRunAsOneBatch pins multi-item admission: on an
// idle server a k-slot request runs as exactly one executor batch for
// k = 2 and k = MaxBatch (BatchSizes[k-1] rises by 1 and no other bucket
// moves), and MaxBatch+3 slots run as two batches, one full and one of 3.
func TestBatchEndpointSlotsRunAsOneBatch(t *testing.T) {
	fx := newFixture(t, []string{material.PureWater, material.Honey})
	const maxBatch = 8
	s, err := New(Config{Registry: fx.registry, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		slots   int
		batches []int
	}{
		{slots: 2, batches: []int{2}},
		{slots: maxBatch, batches: []int{maxBatch}},
		{slots: maxBatch + 3, batches: []int{maxBatch, 3}},
	} {
		raws := make([]json.RawMessage, tc.slots)
		for i := range raws {
			raws[i] = encodeRequest(t, fx.sessions[i%len(fx.sessions)])
		}
		payload, err := json.Marshal(BatchIdentifyRequest{Requests: raws})
		if err != nil {
			t.Fatal(err)
		}
		want := s.Stats().BatchSizes
		for _, n := range tc.batches {
			want[n-1]++
		}
		resp, body := postBatch(t, ts, payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d slots: status %d: %s", tc.slots, resp.StatusCode, body)
		}
		var out BatchIdentifyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		for i, slot := range out.Results {
			if slot.Status != http.StatusOK {
				t.Fatalf("%d slots: slot %d status %d: %s", tc.slots, i, slot.Status, slot.Body)
			}
		}
		if got := s.Stats().BatchSizes; !slices.Equal(got, want) {
			t.Errorf("%d slots: batch sizes %v, want %v (batches %v)", tc.slots, got, want, tc.batches)
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

	if resp, body := postBatch(t, ts, []byte(`{"requests":[]}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body := postBatch(t, ts, []byte(`not json`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage batch: status %d (%s), want 400", resp.StatusCode, body)
	}
	over := BatchIdentifyRequest{Requests: make([]json.RawMessage, MaxBatchSlots+1)}
	for i := range over.Requests {
		over.Requests[i] = []byte(`{}`)
	}
	payload, _ := json.Marshal(over)
	if resp, body := postBatch(t, ts, payload); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d (%s), want 400", resp.StatusCode, body)
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
	payload := fmt.Appendf(nil, `{"requests":[%s]}`, encodeRequest(t, fx.sessions[0]))
	if resp, body := postBatch(t, ts, payload); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining batch: status %d (%s), want 503", resp.StatusCode, body)
	}
}
