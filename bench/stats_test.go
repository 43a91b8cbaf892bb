package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.99, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2},    // ceil(0.5*4) = rank 2
		{[]float64{4, 1, 3, 2}, 0.75, 3},   // rank 3
		{[]float64{4, 1, 3, 2}, 0.76, 4},   // ceil(3.04) = rank 4
		{[]float64{1, 2, 2, 2, 9}, 0.5, 2}, // ties
		{[]float64{7, 7, 7, 7}, 0.99, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10}, // fewer than 100 samples: p99 is the max
		{[]float64{1, 2, 3}, 0.0001, 1},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample must be NaN")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{8000, 0.99, 80}, {99, 0.99, 0}, {100, 0.99, 1}, {10, 0.5, 5}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianMinMax(t *testing.T) {
	xs := []float64{9, 1, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median(odd) = %v", got)
	}
	if xs[0] != 9 {
		t.Error("median must not reorder its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v", got)
	}
	if got := median([]float64{2, 2, 2}); got != 2 {
		t.Errorf("median(ties) = %v", got)
	}
	if lo, hi := minMax(xs); lo != 1 || hi != 9 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

// A slow spell that hits a different unit in each repetition must leave no
// mark: every unit takes its median over the repetitions.
func TestSteadyTakesPerUnitMedians(t *testing.T) {
	reps := []*repResult{
		{unitMs: []float64{250, 900, 250}},
		{unitMs: []float64{800, 500, 250}},
		{unitMs: []float64{250, 500, 700}},
	}
	runS, tailMs := steady(reps)
	if runS != 1 || tailMs != 500 {
		t.Errorf("steady = %v s, %v ms; want 1 s, 500 ms", runS, tailMs)
	}
}

func TestTailMean(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	// ranks 91..99: the slowest sample (100) stays out
	if got := tailMean(xs, 0.90, 0.99); got != 95 {
		t.Errorf("tailMean = %v, want 95", got)
	}
	if !math.IsNaN(tailMean([]float64{1, 2, 3}, 0.90, 0.99)) {
		t.Error("tailMean over no sample must be NaN")
	}
}
