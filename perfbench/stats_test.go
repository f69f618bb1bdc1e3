package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 3, 5}, 1, 3, 5},
		{[]float64{2, 4, 4, 5, 7, 9, 10}, 4, 5, 9},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99, err := percentile(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", p99)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it: want an error")
	}
	if p50, err := percentile(xs[:20], 50); err != nil || p50 != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", p50, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples leaves 9 beyond it: want an error")
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 100})
	if err != nil || math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, %v; want 10", g, err)
	}
	g, err = geomean([]float64{3051.0})
	if err != nil || math.Abs(g-3051) > 1e-9 {
		t.Errorf("geomean of one value = %v, %v", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v): want an error", bad)
		}
	}
}
