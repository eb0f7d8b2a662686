package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"within the bound", lower, base, []float64{10.3, 10.4, 10.2, 10.35, 10.25}, "same"},
		{"slower beyond the bound", lower, base, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, "worse"},
		{"faster beyond the spread", lower, base, []float64{9, 9.1, 8.9, 9.05, 8.95}, "better"},
		{"fewer per second", higher, base, []float64{8.5, 8.6, 8.4, 8.55, 8.45}, "worse"},
		{"more per second", higher, base, []float64{11, 11.1, 10.9, 11.05, 10.95}, "better"},
		{"base too noisy", lower, []float64{8, 12, 9, 11, 10}, []float64{11, 12, 10, 13, 11}, "unresolved"},
		{"noisy but every run faster", lower, []float64{12, 16, 13, 15, 14}, []float64{8, 11, 9, 10, 9}, "better"},
		{"noisy but every run slower", lower, []float64{8, 12, 9, 11, 10}, []float64{14, 18, 15, 17, 16}, "worse"},
		{"noisy candidate, median slower by more than bound and spread", lower, base, []float64{9, 15, 15.5, 16, 16.5}, "worse"},
		{"noisy candidate, median slower within the spread", lower, base, []float64{9, 12, 13, 16, 17}, "unresolved"},
		{"noisy but every run fewer per second", higher, []float64{8, 12, 9, 11, 10}, []float64{6, 7.5, 6.5, 7, 5}, "worse"},
	} {
		if got, _, _ := judge(tc.a, tc.b, tc.m, false); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if got, _, _ := judge([]float64{0, 0, 0}, []float64{0.002, 0.003, 0.002}, metricSpec{Better: "lower", Bound: errorRatioBound}, true); got != "worse" {
		t.Errorf("error ratio rising by 0.002: %s, want worse", got)
	}
	if got, _, _ := judge([]float64{0, 0, 0}, []float64{0, 0.0005, 0}, metricSpec{Better: "lower", Bound: errorRatioBound}, true); got != "same" {
		t.Errorf("error ratio within 0.001: %s, want same", got)
	}
}
