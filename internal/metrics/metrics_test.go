package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryAgainstDirect(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		if math.Abs(s.Mean()-mean) > 1e-6*(1+math.Abs(mean)) {
			return false
		}
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if s.Min() != min || s.Max() != max || s.N() != int64(len(xs)) {
			return false
		}
		if len(xs) >= 2 {
			varSum := 0.0
			for _, x := range xs {
				varSum += (x - mean) * (x - mean)
			}
			want := varSum / float64(len(xs)-1)
			if math.Abs(s.Var()-want) > 1e-6*(1+want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Stddev() != 0 || s.N() != 0 {
		t.Fatal("empty summary not zero")
	}
	if !strings.Contains(s.String(), "n=0") {
		t.Fatal("String missing n")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Fatal("N wrong")
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Median(); math.Abs(got-50) > 1.0 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	// Adding after sorting re-sorts on next query.
	s.Add(1000)
	if got := s.Quantile(1); got != 1000 {
		t.Fatalf("q1 after add = %v", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Median() != 0 {
		t.Fatal("empty sample not zero")
	}
}

func TestSampleQuantileNearestRank(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single-q0", []float64{7}, 0, 7},
		{"single-q50", []float64{7}, 0.5, 7},
		{"single-q100", []float64{7}, 1, 7},
		{"pair-median", []float64{1, 3}, 0.5, 3},                        // rank 0.5 rounds up
		{"four-p50", []float64{1, 2, 3, 4}, 0.5, 3},                     // rank 1.5 rounds to 2
		{"four-p95", []float64{1, 2, 3, 4}, 0.95, 4},                    // rank 2.85 rounds to 3, not floor 2
		{"five-p50", []float64{1, 2, 3, 4, 5}, 0.5, 3},                  // exact middle
		{"ten-p95", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95, 10}, // rank 8.55 -> 9
		{"negative-q", []float64{1, 2, 3}, -0.5, 1},
		{"overflow-q", []float64{1, 2, 3}, 1.5, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Sample
			for _, x := range tc.xs {
				s.Add(x)
			}
			if got := s.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) on %v = %v, want %v", tc.q, tc.xs, got, tc.want)
			}
		})
	}
}

func TestSummaryAllNegative(t *testing.T) {
	var s Summary
	for _, x := range []float64{-5, -1, -9, -3} {
		s.Add(x)
	}
	if s.Min() != -9 {
		t.Fatalf("Min = %v, want -9", s.Min())
	}
	if s.Max() != -1 {
		t.Fatalf("Max = %v, want -1 (max must not stick at zero)", s.Max())
	}
	if math.Abs(s.Mean()-(-4.5)) > 1e-9 {
		t.Fatalf("Mean = %v, want -4.5", s.Mean())
	}
}

func TestSeriesYAtTolerance(t *testing.T) {
	s := &Series{Name: "tol"}
	// An x accumulated by repeated float addition won't be bit-exact.
	x := 0.0
	for i := 0; i < 10; i++ {
		x += 0.1
	}
	s.Add(x, 42) // x ≈ 1.0 but != 1.0 exactly
	if x == 1.0 {
		t.Skip("platform added 0.1 ten times exactly")
	}
	// Within the 1e-9 tolerance the stored x must still be found.
	if v, ok := s.YAt(x + 1e-10); !ok || v != 42 {
		t.Fatalf("YAt within tolerance = %v %v, want 42 true", v, ok)
	}
	// Outside the tolerance it must not match.
	if _, ok := s.YAt(x + 1e-6); ok {
		t.Fatal("YAt matched outside tolerance")
	}
}

func TestHistogramPDFSumsToOne(t *testing.T) {
	f := func(raw []uint8, width uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(int(width%10) + 1)
		for _, v := range raw {
			h.Add(int(v))
		}
		_, probs := h.PDF()
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		return math.Abs(sum-1) < 1e-9 && h.Total() == int64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []int{0, 5, 9, 10, 19, 25, 25} {
		h.Add(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || bounds[0] != 0 || bounds[1] != 10 || bounds[2] != 20 {
		t.Fatalf("bounds = %v", bounds)
	}
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestHistogramWidthClamp(t *testing.T) {
	h := NewHistogram(0)
	if h.Width != 1 {
		t.Fatal("width not clamped to 1")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("short", 1.5)
	tb.AddRow("a-much-longer-name", 42)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + separator + 2 rows + title line.
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "1.5000") {
		t.Fatal("float formatting missing")
	}
	// Columns aligned: every data line has the value column at the same
	// offset.
	idx := strings.Index(lines[1], "value")
	if idx < 0 || !strings.HasPrefix(lines[3][idx:], "1.5000") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2)
	csv := tb.CSV()
	if csv != "a,b\n1,2\n" {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "curve"}
	s.Add(0, 5)
	s.Add(0.5, 2)
	s.Add(1, 9)
	if s.ArgMin() != 0.5 {
		t.Fatalf("ArgMin = %v", s.ArgMin())
	}
	if v, ok := s.YAt(0.5); !ok || v != 2 {
		t.Fatalf("YAt = %v %v", v, ok)
	}
	if _, ok := s.YAt(0.7); ok {
		t.Fatal("YAt found missing x")
	}
	var empty Series
	if empty.ArgMin() != 0 {
		t.Fatal("empty ArgMin")
	}
}
