package main

import (
	"math"
	"sort"

	"skv/internal/sim"
	"skv/internal/stats"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// interpPercentile is h's p-th percentile in nanoseconds, interpolated
// linearly within the histogram bucket the nearest-rank sample falls in.
// stats.Histogram reports bucket lower bounds (100ns steps below 1ms), so a
// tight virtual-time distribution would otherwise read the same value for
// every seed. The bucket's rank range is found by bisection over
// Percentile, the histogram's only rank query.
func interpPercentile(h *stats.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(n)))
	target = min(max(target, 1), n)
	// atRank is the bucket value of the r-th smallest sample.
	atRank := func(r uint64) sim.Duration { return h.Percentile(100 * (float64(r) - 0.5) / float64(n)) }
	v := atRank(target)
	lo := uint64(sort.Search(int(target), func(i int) bool { return atRank(uint64(i)+1) == v })) + 1
	hi := target + uint64(sort.Search(int(n-target), func(i int) bool { return atRank(target+uint64(i)+1) != v }))
	width := 100 * sim.Nanosecond
	switch {
	case v >= 100*sim.Millisecond:
		width = sim.Millisecond
	case v >= sim.Millisecond:
		width = 10 * sim.Microsecond
	}
	return float64(v) + float64(width)*(float64(target-lo)+0.5)/float64(hi-lo+1)
}
