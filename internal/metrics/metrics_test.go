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
			want := math.Sqrt(varSum / float64(len(xs)-1))
			if math.Abs(s.Stddev()-want) > 1e-6*(1+want) {
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
	if s.Mean() != 0 || s.Stddev() != 0 || s.N() != 0 {
		t.Fatal("empty summary not zero")
	}
	if !strings.Contains(s.String(), "n=0") {
		t.Fatal("String missing n")
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
		values := make([]int, len(raw))
		for i, v := range raw {
			values[i] = int(v)
		}
		w := int(width%10) + 1
		bounds, probs := PDF(values, w)
		sum := 0.0
		for i, p := range probs {
			sum += p
			if bounds[i]%w != 0 || (i > 0 && bounds[i] <= bounds[i-1]) {
				return false
			}
		}
		return len(bounds) == len(probs) && math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	bounds, probs := PDF([]int{25, 0, 19, 5, 9, 10, 25}, 10)
	if len(bounds) != 3 || bounds[0] != 0 || bounds[1] != 10 || bounds[2] != 20 {
		t.Fatalf("bounds = %v", bounds)
	}
	if probs[0] != 3.0/7 || probs[1] != 2.0/7 || probs[2] != 2.0/7 {
		t.Fatalf("probs = %v, want 3/7, 2/7, 2/7", probs)
	}
}

func TestHistogramWidthClamp(t *testing.T) {
	for _, width := range []int{0, -3} {
		bounds, _ := PDF([]int{0, 1, 2}, width)
		if len(bounds) != 3 || bounds[0] != 0 || bounds[1] != 1 || bounds[2] != 2 {
			t.Fatalf("width %d: bounds = %v, want width 1", width, bounds)
		}
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
