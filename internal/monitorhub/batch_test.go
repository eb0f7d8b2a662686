package monitorhub

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/monitor"
	"repro/internal/testutil"
)

// batchTestSegment is the segmenter shape the bit-identity drill uses: a
// tight stride so every stream emits many sessions per appearance.
var batchTestSegment = monitor.SegmenterOptions{Settle: 3, TargetLen: 15, BaselineLen: 15, Stride: 5}

// verdictRec is one delivered identification result as the testVerdict hook
// sees it.
type verdictRec struct {
	det core.Detail
	err string
}

// TestBatchedVerdictsBitIdenticalSequential pins the tentpole's correctness
// contract: whatever the worker count and batch size, the hub's
// cross-stream batched, baseline-cached identification delivers — per
// stream, in emission order — exactly the verdict sequence a sequential,
// uncached IdentifyDetailedP over the same segmented sessions produces.
// Each stream carries TWO appearances of different liquids, so every
// per-stream BaselineCache crosses an invalidation mid-run.
func TestBatchedVerdictsBitIdenticalSequential(t *testing.T) {
	defer testutil.LeakCheck(t, 3)()
	id := testIdentifier(t)

	// Six streams, two appearances each, liquids rotating so neighbouring
	// streams inside one classification batch carry different materials.
	const nStreams = 6
	pkts := make([][]csi.Packet, nStreams)
	names := make([]string, nStreams)
	for i := 0; i < nStreams; i++ {
		first := fixtureLiquids[i%len(fixtureLiquids)]
		second := fixtureLiquids[(i+1)%len(fixtureLiquids)]
		stream := liquidStream(t, first, 40, 120, int64(900+i*13))
		stream = append(stream, liquidStream(t, second, 40, 120, int64(1700+i*13))...)
		pkts[i] = stream
		names[i] = fmt.Sprintf("vat-%02d", i)
	}

	// Reference: the same segmenter shape fed the same packets, every
	// emitted session identified sequentially through the plain uncached
	// single-session path.
	want := make([][]verdictRec, nStreams)
	pl := core.NewPipeline()
	for i := range pkts {
		sg, err := monitor.NewSegmenterOpts(monitor.Config{BaselinePackets: 30}, 5.32e9, batchTestSegment)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range pkts[i] {
			s, _, err := sg.Feed(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if s == nil {
				continue
			}
			det, derr := id.IdentifyDetailedP(pl, s)
			rec := verdictRec{det: det}
			if derr != nil {
				rec.err = derr.Error()
			}
			want[i] = append(want[i], rec)
			s.Release()
		}
		if len(want[i]) < 8 {
			t.Fatalf("reference stream %d emitted only %d sessions; stimulus too weak", i, len(want[i]))
		}
	}

	for _, tc := range []struct {
		name              string
		workers, batchMax int
		held              bool
	}{
		{"workers=1,batch=1,linger=false", 1, 1, false},
		{"workers=1,batch=8,linger=false", 1, 8, false},
		{"workers=4,batch=1,linger=false", 4, 1, false},
		{"workers=4,batch=3,linger=false", 4, 3, false},
		{"workers=4,batch=8,linger=false", 4, 8, false},
		{"workers=1,batch=8,held", 1, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			got := make(map[string][]verdictRec)
			cfg := testConfig(t)
			cfg.Segment = batchTestSegment
			cfg.Workers = tc.workers
			cfg.BatchMax = tc.batchMax
			// Deep pending rings: shedding would make the verdict sequence
			// load-dependent, and this drill pins determinism.
			cfg.PendingPerStream = 64
			// The held arm wedges the single worker on its first stream
			// until every packet is fed, so every stream is dirty when it
			// resumes and cross-stream batches form by construction. With
			// one worker, a batch of k is k holds before the next verdict.
			fed := make(chan struct{})
			var holdOnce sync.Once
			run, largest := 0, 0
			if tc.held {
				cfg.testHold = func(string) {
					holdOnce.Do(func() { <-fed })
					mu.Lock()
					run++
					largest = max(largest, run)
					mu.Unlock()
				}
			}
			cfg.testVerdict = func(streamID string, det core.Detail, err error) {
				rec := verdictRec{det: det}
				if err != nil {
					rec.err = err.Error()
				}
				mu.Lock()
				got[streamID] = append(got[streamID], rec)
				run = 0
				mu.Unlock()
			}
			h, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sts := make([]*stream, nStreams)
			for i := range sts {
				st, err := h.newStream(names[i])
				if err != nil {
					t.Fatal(err)
				}
				sts[i] = st
			}
			// Interleave ingest round-robin packet-by-packet: different
			// streams go dirty together, so free workers race the feeder
			// for whatever is dirty.
			for p := 0; p < len(pkts[0]); p++ {
				for i, st := range sts {
					if err := st.feed(pkts[i][p]); err != nil {
						close(fed)
						t.Fatal(err)
					}
				}
			}
			close(fed)
			h.Close() // drain every pending session

			mu.Lock()
			defer mu.Unlock()
			if tc.held && largest < 2 {
				t.Fatalf("no cross-stream batch formed behind the held worker (largest %d)", largest)
			}
			for i := range sts {
				g := got[names[i]]
				if len(g) != len(want[i]) {
					t.Fatalf("stream %s: %d verdicts, want %d", names[i], len(g), len(want[i]))
				}
				for j := range g {
					if g[j] != want[i][j] {
						t.Fatalf("stream %s verdict %d: batched %+v != sequential %+v",
							names[i], j, g[j], want[i][j])
					}
				}
			}
		})
	}
}
