package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// percentiles returns the nearest-rank q-quantile of samples for each q:
// the ⌈q·n⌉-th smallest sample (the smallest for q = 0). It returns NaN
// for an empty sample set. samples is not modified.
func percentiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	n := len(sorted)
	for i, q := range qs {
		rank := int(math.Ceil(q * float64(n)))
		rank = max(1, min(rank, n))
		out[i] = sorted[rank-1]
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSink keeps the calibration loop's result live so the compiler
// cannot drop the loop.
var calibSink uint64

// calibrate times a fixed register-bound loop (xorshift64, no memory
// traffic) and returns the fastest of three passes in milliseconds. It is
// a host-speed diagnostic printed beside the metrics, so a slow run can
// be told apart from a slow change; no metric is divided by it.
func calibrate() float64 {
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 30_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best = min(best, float64(time.Since(start))/1e6)
	}
	return best
}
