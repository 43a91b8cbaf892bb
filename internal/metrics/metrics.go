// Package metrics provides the statistics collectors and table/series
// renderers the experiment harness uses to report results in the same shape
// as the paper's tables and figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
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

// Var returns the sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 with no observations).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with no observations).
func (s *Summary) Max() float64 { return s.max }

// String renders "mean=... n=... min=... max=...".
func (s *Summary) String() string {
	return fmt.Sprintf("mean=%.3f sd=%.3f n=%d min=%.3f max=%.3f",
		s.Mean(), s.Stddev(), s.n, s.min, s.max)
}

// Sample keeps every observation for exact quantiles.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range s.xs {
		total += x
	}
	return total / float64(len(s.xs))
}

// Quantile returns the q-th (0..1) quantile by nearest-rank. The rank is
// rounded to the nearest index rather than truncated, so p50/p95 are not
// biased low on small samples.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	idx := int(q*float64(len(s.xs)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.xs) {
		idx = len(s.xs) - 1
	}
	return s.xs[idx]
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Histogram counts observations into fixed-width integer buckets; it backs
// the Fig. 4 probability-density functions (data items per peer).
type Histogram struct {
	Width  int
	counts map[int]int64
	total  int64
}

// NewHistogram creates a histogram with the given bucket width (>= 1).
func NewHistogram(width int) *Histogram {
	if width < 1 {
		width = 1
	}
	return &Histogram{Width: width, counts: make(map[int]int64)}
}

// Add records an integer observation.
func (h *Histogram) Add(v int) {
	h.counts[v/h.Width]++
	h.total++
}

// Total returns the observation count.
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns (bucket lower bound, count) pairs in ascending order.
func (h *Histogram) Buckets() ([]int, []int64) {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	bounds := make([]int, len(keys))
	counts := make([]int64, len(keys))
	for i, k := range keys {
		bounds[i] = k * h.Width
		counts[i] = h.counts[k]
	}
	return bounds, counts
}

// PDF returns (bucket lower bound, probability mass) pairs.
func (h *Histogram) PDF() ([]int, []float64) {
	bounds, counts := h.Buckets()
	probs := make([]float64, len(counts))
	for i, c := range counts {
		probs[i] = float64(c) / float64(h.total)
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
