package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1.0, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if s := spread(xs); !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", s)
	}
	if s := spread([]float64{7, 7, 7, 7}); s != 0 {
		t.Errorf("spread of a constant = %v", s)
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	if !tailOK(1000, 0.99) {
		t.Error("1000 samples leave 10 beyond the p99")
	}
	if tailOK(999, 0.99) {
		t.Error("999 samples leave only 9 beyond the p99")
	}
	if !tailOK(20, 0.5) || tailOK(19, 0.5) {
		t.Error("the median needs 20 samples for ten beyond it")
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := percentile(xs, 0.99)
	beyond := 0
	for _, x := range xs {
		if x > p {
			beyond++
		}
	}
	if p != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond; want 990 with 10", p, beyond)
	}
	if percentile(nil, 0.99) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}
