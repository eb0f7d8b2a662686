package main

import (
	"testing"
	"time"

	"repro/internal/monitorhub"
)

// An event the oracle could not foresee, such as a verdict landing after the
// vessel's removal, is a failure and does not shift the matching of later
// events; a wrong material is an oracle mismatch.
func TestMatchEventsByFeedTime(t *testing.T) {
	epoch := time.Now()
	at := func(d time.Duration) time.Time { return epoch.Add(d) }
	tmpls := []*hubTemplate{{apps: []appearance{{material: "pure-water"}, {material: "pure-water"}}}}
	records := [][]feedRecord{{
		{due: int64(2 * time.Second), start: int64(2 * time.Second)},
		{due: int64(5 * time.Second), start: int64(5 * time.Second)},
	}}
	env := &runEnv{warmup: time.Second}
	identified := func(seq uint64, when time.Duration, material string) monitorhub.Event {
		return monitorhub.Event{Seq: seq, Stream: streamID(0), Kind: "material-identified", Material: material, Time: at(when)}
	}

	snap := monitorhub.FleetSnapshot{Totals: monitorhub.Totals{Events: 3}, Events: []monitorhub.Event{
		identified(1, 2*time.Second+time.Millisecond, "pure-water"),
		identified(2, 3*time.Second, "honey"), // before the second appearance was fed
		identified(3, 5*time.Second+2*time.Millisecond, "pure-water"),
	}}
	res := newResult(&runEnv{workload: "hub"}, nil)
	ev, err := matchEvents(res, snap, records, tmpls, epoch, env)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || ev.wrong != 1 || len(ev.latencies) != 2 {
		t.Fatalf("correct %v, wrong %d, %d latencies; want true, 1, 2 (problems %q)",
			res.correct(), ev.wrong, len(ev.latencies), res.Problems)
	}
	if ev.latencies[1] != float64(2*time.Millisecond) {
		t.Fatalf("second appearance latency %v, want 2ms", time.Duration(ev.latencies[1]))
	}

	snap.Events[2].Material = "honey"
	res = newResult(&runEnv{workload: "hub"}, nil)
	if _, err := matchEvents(res, snap, records, tmpls, epoch, env); err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.Mismatches != 1 {
		t.Fatalf("a wrong material: correct %v, mismatches %d; want false, 1", res.correct(), res.Mismatches)
	}

	snap.Events[1].Seq = 7
	res = newResult(&runEnv{workload: "hub"}, nil)
	if _, err := matchEvents(res, snap, records, tmpls, epoch, env); err != nil {
		t.Fatal(err)
	}
	if res.correct() {
		t.Fatal("a Seq gap was not a problem")
	}
}
