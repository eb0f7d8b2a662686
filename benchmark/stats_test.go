package main

import (
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 10, 1},
		{ten, 1, 1},
		{[]float64{7}, 50, 7},
		{nil, 50, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
}

// The quartiles must equal Python's statistics.quantiles(xs, n=4), the
// spread the benchmark's acceptance is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // Python extrapolates past two points
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPoissonScheduleDependsOnlyOnSeed(t *testing.T) {
	warm, window := 2*time.Second, 3*time.Second
	a := poissonSchedule(7, 200, warm, window)
	if b := poissonSchedule(7, 200, warm, window); !slices.Equal(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, 200, warm, window); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) {
		t.Fatal("schedule is not ascending")
	}
	inWindow := 0
	for _, d := range a {
		if d < 0 || d >= warm+window {
			t.Fatalf("arrival %v outside the run", d)
		}
		if d >= warm {
			inWindow++
		}
	}
	if len(a) != 1000 || inWindow != 600 {
		t.Fatalf("got %d arrivals, %d in the window; want 1000 and 600", len(a), inWindow)
	}
}

func TestBacklogGrew(t *testing.T) {
	flat := []float64{1, 0, 2, 1, 0, 1, 2, 1, 0}
	if backlogGrew(flat, 4) {
		t.Error("a level backlog was reported as growing")
	}
	var frozen []float64
	for i := 0; i < 30; i++ {
		frozen = append(frozen, float64(i%2))
	}
	frozen[23], frozen[24], frozen[25] = 60, 35, 10
	if backlogGrew(frozen, 4) {
		t.Error("a level backlog piled up by one freeze was reported as growing")
	}
	var rising []float64
	for i := 0; i < 30; i++ {
		rising = append(rising, float64(i*3))
	}
	if !backlogGrew(rising, 4) {
		t.Error("a growing backlog was not reported")
	}
}

func TestSubSeedSeparatesNamesAndIndices(t *testing.T) {
	seen := map[int64]bool{}
	for _, name := range []string{"paced", "long", "paced/arrivals"} {
		for i := 0; i < 3; i++ {
			s := subSeed(1, name, i)
			if seen[s] {
				t.Fatalf("subSeed collision at %s/%d", name, i)
			}
			seen[s] = true
			if s != subSeed(1, name, i) {
				t.Fatal("subSeed is not deterministic")
			}
		}
	}
}

func TestNormalizeArgsJoinsBooleanTrace(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "hub-fleet", "--trace", "0", "--seed", "3", "-trace"})
	want := []string{"--workload", "hub-fleet", "--trace=0", "--seed", "3", "-trace"}
	if !slices.Equal(got, want) {
		t.Fatalf("normalizeArgs = %q, want %q", got, want)
	}
}
