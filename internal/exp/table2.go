package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

// RunTable2 regenerates Table 2: the total number of peers contacted by all
// data lookups (connum) under different p_s and TTL values. Expected shape:
// connum drops roughly linearly as p_s grows (fewer t-peers on each routing
// path), and TTL only matters once p_s exceeds 0.5 (larger s-network floods).
func RunTable2(o Options) (*Result, error) {
	res := newResult("Table2")
	points := o.psPoints()

	rows, err := ttlCells(o, "Table2", 600, paperRoutingConfig,
		func(_, ttl, k int) int { return k*3 + ttl },
		func(rs []core.OpResult) float64 { return float64(totalContacts(rs)) })
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("Table 2: total connum over %d lookups per cell", o.Lookups/len(ttls)),
		"p_s", "TTL=1", "TTL=2", "TTL=4")
	totals := make(map[string]int)
	for pi, ps := range points {
		row := []any{fmt.Sprintf("%.2f", ps)}
		for i, ttl := range ttls {
			c := int(rows[pi][i])
			totals[fmt.Sprintf("%.1f/%d", ps, ttl)] = c
			row = append(row, c)
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)

	res.Values["connum_ps0_ttl4"] = float64(totals[fmt.Sprintf("%.1f/%d", points[0], 4)])
	res.Values["connum_ps0.9_ttl4"] = float64(totals["0.9/4"])
	res.Values["connum_ps0.9_ttl1"] = float64(totals["0.9/1"])
	if v := totals[fmt.Sprintf("%.1f/%d", points[0], 4)]; v > 0 {
		res.Values["connum_ratio_ps0.9_vs_ps0"] = float64(totals["0.9/4"]) / float64(v)
	}
	res.Notes = append(res.Notes,
		"paper: connum decreases ~linearly in p_s; at p_s=0.9 it is ~10% of the structured network's; TTL matters only for p_s>0.5")
	return res, nil
}
