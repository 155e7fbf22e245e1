package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := func() []float64 {
		out := make([]float64, 100)
		for i := range out {
			out[i] = float64(100 - i) // 100..1, unsorted
		}
		return out
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}, {99.5, 100}} {
		if got := percentile(xs(), c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// With fewer than 100 samples p99 is the maximum.
	if got := percentile([]float64{3, 1, 2}, 99); got != 3 {
		t.Errorf("p99 of 3 samples = %v, want the max 3", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestDurationsUSAndPerOp(t *testing.T) {
	got := durationsUS([]time.Duration{1500 * time.Nanosecond, 2 * time.Millisecond})
	if got[0] != 1.5 || got[1] != 2000 {
		t.Errorf("durationsUS = %v, want [1.5 2000]", got)
	}
	if v := perOp(10, 4); v != 2.5 {
		t.Errorf("perOp(10, 4) = %v", v)
	}
	if v := perOp(10, 0); v != 0 || math.IsNaN(v) {
		t.Errorf("perOp with no ops = %v, want 0", v)
	}
}

func TestSelfTimeIsOuterMinusInnerPerOp(t *testing.T) {
	s := selfTime{layer: "http", outer: "rt", inner: "handler", outerUS: 300, innerUS: 100, ops: 4}
	if got := s.perOpUS(); got != 50 {
		t.Errorf("perOpUS = %v, want 50", got)
	}
}
