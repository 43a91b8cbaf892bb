// Package metrics provides the statistics collectors and table/series
// renderers the experiment harness uses to report results in the same shape
// as the paper's tables and figures.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Summary accumulates streaming mean/variance/min/max via Welford's method.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the running mean (0 with no observations).
func (s *Summary) Mean() float64 { return s.mean }

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 with no observations).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with no observations).
func (s *Summary) Max() float64 { return s.max }

// String renders "mean=... n=... min=... max=...".
func (s *Summary) String() string {
	return fmt.Sprintf("mean=%.3f sd=%.3f n=%d min=%.3f max=%.3f",
		s.Mean(), s.Stddev(), s.n, s.min, s.max)
}

// PDF buckets values (each >= 0) into integer buckets of the given width
// (below 1 counts as 1) and returns every non-empty bucket's lower bound and
// probability mass, in ascending order. It backs the Fig. 4
// probability-density functions (data items per peer).
func PDF(values []int, width int) (bounds []int, probs []float64) {
	width = max(width, 1)
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	for _, v := range sorted {
		lo := v / width * width
		if len(bounds) == 0 || bounds[len(bounds)-1] != lo {
			bounds = append(bounds, lo)
			probs = append(probs, 0)
		}
		probs[len(probs)-1]++
	}
	for i := range probs {
		probs[i] /= float64(len(values))
	}
	return bounds, probs
}

// Table is an aligned-column text table, used to print paper-style rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Series is a named (x, y) sequence — one figure curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// ArgMin returns the x at which y is minimal (0 for an empty series).
func (s *Series) ArgMin() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	best := 0
	for i, y := range s.Y {
		if y < s.Y[best] {
			best = i
		}
	}
	return s.X[best]
}

// YAt returns the y value for the point with the given x, or (0, false).
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if math.Abs(xv-x) < 1e-9 {
			return s.Y[i], true
		}
	}
	return 0, false
}
