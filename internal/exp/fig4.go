package exp

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunFig4 regenerates Fig. 4: the probability density function of the number
// of data items per peer under the two placement schemes, for
// p_s in {0, 0.4, 0.9}. The first scheme concentrates remotely generated
// data on t-peers (at p_s = 0.9 most peers hold nothing and a few t-peers
// hold hundreds); the second scheme spreads it across each s-network.
func RunFig4(o Options) (*Result, error) {
	res := newResult("Fig4")

	psValues := []float64{0, 0.4, 0.9}
	schemes := []core.Placement{core.PlaceAtTPeer, core.PlaceSpread}
	keys := workload.Keys(o.Items)

	// One worker-pool task per (scheme, p_s) cell; each returns its summary
	// row plus the PDF panel, assembled below in grid order.
	type fig4Cell struct {
		peers         int
		zero, g       float64
		med, p90, max int
		pdf           *metrics.Table
	}
	cells, err := sweep(o, len(schemes)*len(psValues), func(i int) (fig4Cell, error) {
		scheme := schemes[i/len(psValues)]
		ps := psValues[i%len(psValues)]
		cfg := expConfig(ps)
		cfg.Placement = scheme
		sc, err := buildScenario(o, cfg, o.Seed+int64(ps*1000)+int64(scheme), nil, keys)
		if err != nil {
			return fig4Cell{}, err
		}
		sc.observe(o, fmt.Sprintf("Fig4 %s ps=%.1f", scheme, ps))
		counts := sc.Sys.ItemsPerPeer()
		var c fig4Cell
		c.peers = len(counts)
		c.zero, c.med, c.p90, c.max = distStats(counts)
		c.g = gini(counts)

		// Full PDF for the three panels the paper shows per scheme.
		width := bucketWidth(c.max)
		c.pdf = metrics.NewTable(
			fmt.Sprintf("Fig 4 PDF: scheme=%s p_s=%.1f (bucket width %d)", scheme, ps, width),
			"items-per-peer", "probability")
		bounds, probs := metrics.PDF(counts, width)
		for i := range bounds {
			c.pdf.AddRow(bounds[i], probs[i])
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}

	summary := metrics.NewTable("Fig 4: data distribution summary per (scheme, p_s)",
		"scheme", "p_s", "peers", "zero-frac", "median", "p90", "max", "gini")
	for si, scheme := range schemes {
		for pi, ps := range psValues {
			c := cells[si*len(psValues)+pi]
			summary.AddRow(scheme.String(), fmt.Sprintf("%.1f", ps), c.peers, c.zero, c.med, c.p90, c.max, c.g)
			tag := fmt.Sprintf("%s_ps%.1f", scheme, ps)
			res.Values["zerofrac_"+tag] = c.zero
			res.Values["max_"+tag] = float64(c.max)
			res.Values["gini_"+tag] = c.g
			res.Tables = append(res.Tables, c.pdf)
		}
	}
	res.Tables = append([]*metrics.Table{summary}, res.Tables...)
	res.Notes = append(res.Notes,
		"paper: at p_s=0.9 scheme 1 leaves ~85% of peers empty with maxima >500, scheme 2 drops the empty fraction to ~12%")
	return res, nil
}

// distStats returns the zero fraction, median, 90th percentile and maximum.
func distStats(counts []int) (zeroFrac float64, median, p90, max int) {
	if len(counts) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	zero := 0
	for _, c := range sorted {
		if c == 0 {
			zero++
		}
	}
	zeroFrac = float64(zero) / float64(len(sorted))
	median = sorted[len(sorted)/2]
	p90 = sorted[(len(sorted)*9)/10]
	max = sorted[len(sorted)-1]
	return
}

// gini computes the Gini coefficient of the per-peer load, a single-number
// imbalance measure (0 = perfectly even, 1 = one peer holds everything).
func gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	var cum, totalCum, total float64
	for _, c := range sorted {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	for _, c := range sorted {
		cum += float64(c)
		totalCum += cum
	}
	return (float64(n) + 1 - 2*totalCum/total) / float64(n)
}

// bucketWidth picks a PDF bucket size that keeps tables readable.
func bucketWidth(max int) int {
	switch {
	case max <= 40:
		return 1
	case max <= 200:
		return 5
	case max <= 1000:
		return 20
	default:
		return 50
	}
}
