package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// Python's exact-integer rescaling, clamp included.
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure the benchmark's bounds are judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailOK reports whether a sample of n values leaves at least minTail
// samples beyond its p-th percentile (0 < p < 1), so the percentile is
// backed by more than a handful of outliers.
func tailOK(n int, p float64) bool {
	rank := int(math.Ceil(p * float64(n)))
	return n-rank >= minTail
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of xs; 0
// for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perK scales a count to a rate per thousand of base.
func perK(count, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(count) * 1000 / float64(base)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
