package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by nearest
// rank: the smallest sample with at least p% of the samples at or below it.
// It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps an exact product such as 90% of 10 from rounding up
	// to the next rank through floating-point error.
	rank := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return sorted[min(max(rank, 0), n-1)]
}

// sortedCopy returns the values in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// median is the nearest-rank 50th percentile of unsorted xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives with its default "exclusive" method, so
// a spread computed here matches one computed from the printed values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := sortedCopy(xs)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// backlogGrew reports whether a queue sampled evenly through the measured
// window grew: the median of its last third exceeds twice the median of its
// first third plus slack. A system keeping up with an open-loop load holds its
// backlog level; one falling behind accumulates it for the whole window. A
// freeze of the shared machine piles the queue up for a sample or two, which
// moves a mean but not a median: with means, one cluster-paced run in forty
// of a busy spell failed the gate on a healthy system.
func backlogGrew(samples []float64, slack float64) bool {
	n := len(samples) / 3
	if n == 0 {
		return false
	}
	return median(samples[len(samples)-n:]) > 2*median(samples[:n])+slack
}

// subSeed derives an independent, reproducible seed for one named input of a
// run from the run's -seed.
func subSeed(seed int64, name string, i int) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// poissonSchedule returns ascending send times for an open loop at rate
// arrivals per second over consecutive segments (warm-up, then the measured
// window). Each segment holds exactly round(rate × length) arrivals placed
// uniformly at random: a Poisson process conditioned on its count, so the
// offered load of a window is the same on every seed while the arrival
// pattern changes with it.
func poissonSchedule(seed int64, rate float64, segments ...time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var start time.Duration
	for _, seg := range segments {
		n := int(rate*seg.Seconds() + 0.5)
		part := make([]time.Duration, n)
		for i := range part {
			part[i] = start + time.Duration(rng.Int63n(int64(seg)))
		}
		slices.Sort(part)
		out = append(out, part...)
		start += seg
	}
	return out
}
