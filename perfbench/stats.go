package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile, so a
// tail figure rests on more than a handful of outliers.
const minTail = 10

// percentile returns the exact q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule: the smallest sample with at least q of all samples at
// or below it, and how many samples lie beyond it. sorted must be in
// ascending order. It errors when fewer than minTail samples lie beyond.
func percentile(sorted []int64, q float64) (v int64, beyond int, err error) {
	n := len(sorted)
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n) // 1-based
	if beyond = n - rank; beyond < minTail {
		return 0, beyond, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	return sorted[rank-1], beyond, nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// cpuTime returns the process's user+system CPU time so far. CPU per op is
// steadier than wall time when the client and server share few cores.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
