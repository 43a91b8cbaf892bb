package exp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/metrics"
)

// The shapes the paper's figures repeat, each stated once. An experiment is
// arms (what differs between curves), points (the x axis) and a cell (one
// simulation: buildScenario, drive, measure); grid runs the cells, curveTable
// renders the curves, histSupplement renders the -hist rows of the same grid.

// errNoKeys refuses a size option that leaves an experiment nothing to store
// or look up.
var errNoKeys = errors.New("exp: empty key universe: -items is too small for this experiment's share of it")

// grid runs cell for every (arm, x) pair as one worker-pool task each,
// arm-major, and returns one curve per arm (named arms[a], y = the cell's
// value at each x) plus the cells themselves in task order.
func grid(o Options, arms []string, xs []float64, cell func(arm int, x float64) (histVal, error)) ([]*metrics.Series, []histVal, error) {
	cells, err := sweep(o, len(arms)*len(xs), func(i int) (histVal, error) {
		return cell(i/len(xs), xs[i%len(xs)])
	})
	if err != nil {
		return nil, nil, err
	}
	curves := make([]*metrics.Series, len(arms))
	for a, name := range arms {
		curves[a] = &metrics.Series{Name: name}
		for i, x := range xs {
			curves[a].Add(x, cells[a*len(xs)+i].v)
		}
	}
	return curves, cells, nil
}

// curveTable renders curves sampled at the same xs: one row per x (printed
// with xFmt under the header xName), one column per curve.
func curveTable(title, xName, xFmt string, xs []float64, curves []*metrics.Series) *metrics.Table {
	t := metrics.NewTable(title)
	t.Headers = append([]string{xName}, seriesNames(curves)...)
	for i, x := range xs {
		row := []any{fmt.Sprintf(xFmt, x)}
		for _, c := range curves {
			row = append(row, c.Y[i])
		}
		t.AddRow(row...)
	}
	return t
}

// seriesNames extracts curve names for table headers.
func seriesNames(curves []*metrics.Series) []string {
	names := make([]string, len(curves))
	for i, c := range curves {
		names[i] = c.Name
	}
	return names
}

// histSupplement renders a p_s grid's cells as the percentile table -hist
// appends, one row per cell labelled "<arm> ps=<x>" (labels[a] is the arm's
// row label; empty for a single-arm sweep).
func histSupplement(title string, labels []string, xs []float64, cells []histVal) *metrics.Table {
	rows := make([]string, len(cells))
	hps := make([]histPoint, len(cells))
	for i, c := range cells {
		rows[i] = strings.TrimSpace(fmt.Sprintf("%s ps=%.2f", labels[i/len(xs)], xs[i%len(xs)]))
		hps[i] = c.hp
	}
	return histTable(title, rows, hps)
}

// pointNear returns the sweep point closest to the target.
func pointNear(points []float64, target float64) float64 {
	best := points[0]
	for _, p := range points {
		if math.Abs(p-target) < math.Abs(best-target) {
			best = p
		}
	}
	return best
}
