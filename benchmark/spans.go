package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
)

// spanName names a layer boundary the traced run records. Spans marked
// "replayed" are not measured while the system runs: after it has stopped,
// each traced op's exact input is passed once more through the public stage
// function, and that call's span is recorded under the op.
type spanName uint8

const (
	spanOp          spanName = iota // op: from the due time (open loop) or send to the checked answer
	spanRoundtrip                   // http.roundtrip: client send to response
	spanReload                      // registry.reload: POST /v1/reload round trip
	spanDecodeJSON                  // serve.decode_json: json.Unmarshal of the request (replayed)
	spanTraceDecode                 // trace.decode: both captures through trace.Reader (replayed)
	spanFeatures                    // core.features: wimi.ExtractFeatures (replayed)
	spanClassify                    // core.classify: Identifier.IdentifyFeatures (replayed)
	spanEncodeJSON                  // serve.encode_json: json.Marshal of the response (replayed)
	spanHubFeed                     // hub.feed: one packet through a stream's feed function
	spanHubSnapshot                 // hub.snapshot: Hub.Snapshot("", 64)
	spanHubVerdict                  // hub.verdict: feed of the packet completing an appearance's first session to its material-identified event
)

var spanNames = [...]string{
	spanOp:          "op",
	spanRoundtrip:   "http.roundtrip",
	spanReload:      "registry.reload",
	spanDecodeJSON:  "serve.decode_json",
	spanTraceDecode: "trace.decode",
	spanFeatures:    "core.features",
	spanClassify:    "core.classify",
	spanEncodeJSON:  "serve.encode_json",
	spanHubFeed:     "hub.feed",
	spanHubSnapshot: "hub.snapshot",
	spanHubVerdict:  "hub.verdict",
}

// replayStages are the serving stages the traced run replays per request, in
// pipeline order; the rest of a round trip is unattributed.
var replayStages = []spanName{spanDecodeJSON, spanTraceDecode, spanFeatures, spanClassify, spanEncodeJSON}

// span is one timed interval. Every span of an op carries the op's id.
type span struct {
	op     uint32
	parent int32 // index of the parent span in the buffer; -1 for a root
	name   spanName
	start  int64 // ns since the run epoch
	end    int64
}

func (s span) dur() float64 { return float64(s.end - s.start) }

// spanBuf is a fixed-capacity span store, allocated before the run, that
// concurrent recorders append to without locking.
type spanBuf struct {
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, capacity)} }

// add records s and returns its index, or -1 (counted as dropped) when the
// buffer is full.
func (b *spanBuf) add(s span) int32 {
	i := b.next.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return -1
	}
	b.spans[i] = s
	return int32(i)
}

// recorded returns the spans added so far. Call it only once every recorder
// has finished.
func (b *spanBuf) recorded() []span {
	return b.spans[:min(b.next.Load(), int64(len(b.spans)))]
}

// writeJSONL writes one JSON object per span.
func (b *spanBuf) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range b.recorded() {
		fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.op, i, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// durations returns the duration in ns of every span called name.
func durations(spans []span, name spanName) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// unattributed returns, for every span called root that has children called
// one of stages, the root's duration minus the summed durations of those
// children, in ns: the part of the root no measured stage accounts for.
func unattributed(spans []span, root spanName, stages ...spanName) []float64 {
	isStage := map[spanName]bool{}
	for _, st := range stages {
		isStage[st] = true
	}
	covered := map[int32]float64{}
	for _, s := range spans {
		if s.parent >= 0 && isStage[s.name] {
			covered[s.parent] += s.dur()
		}
	}
	var out []float64
	for i, s := range spans {
		if c, ok := covered[int32(i)]; ok && s.name == root {
			out = append(out, s.dur()-c)
		}
	}
	return out
}
