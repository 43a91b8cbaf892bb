package exp

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// fig3TTL is the flood radius of Fig. 3b's lookups and of its Eq. curves
// (Eq. (1), Fig. 3a's, has no TTL term).
const fig3TTL = 4

var fig3Deltas = []float64{2, 3, 4}

// analyticCurves evaluates one of the paper's closed forms at every sweep
// point for δ in {2, 3, 4}: the curves Fig. 3a and 3b plot beside their
// simulated δ = 3 curve.
func analyticCurves(o Options, points []float64, eq func(analytic.Params) float64) []*metrics.Series {
	curves := make([]*metrics.Series, 0, len(fig3Deltas)+1)
	for _, d := range fig3Deltas {
		s := &metrics.Series{Name: fmt.Sprintf("analytic δ=%g", d)}
		for _, ps := range points {
			s.Add(ps, eq(analytic.Params{N: float64(o.N), Ps: ps, Delta: d, TTL: fig3TTL}))
		}
		curves = append(curves, s)
	}
	return curves
}

// RunFig3a regenerates Fig. 3a: the average join latency (in overlay hops)
// as a function of p_s for δ in {2, 3, 4}. Analytic curves come from Eq. (1);
// the simulated curve measures the hop counts of real joins at δ = 3 and
// must reproduce the U shape with its minimum around p_s = 0.7-0.8.
func RunFig3a(o Options) (*Result, error) {
	res := newResult("Fig3a")
	points := o.psPoints()

	sim, _, err := grid(o, []string{"simulated δ=3"}, points, func(_ int, ps float64) (histVal, error) {
		sc, err := buildScenario(o, expConfig(ps), o.Seed+int64(ps*100), nil, nil)
		if err != nil {
			return histVal{}, err
		}
		total := 0.0
		for _, js := range sc.Joins {
			total += float64(js.Hops)
		}
		sc.observe(o, fmt.Sprintf("Fig3a ps=%.2f", ps))
		return histVal{v: total / float64(len(sc.Joins))}, nil
	})
	if err != nil {
		return nil, err
	}
	curves := append(analyticCurves(o, points, analytic.JoinLatency), sim...)
	res.Tables = append(res.Tables, curveTable("Fig 3a: average join latency (hops) vs p_s", "p_s", "%.2f", points, curves))

	for _, d := range fig3Deltas {
		res.Values[fmt.Sprintf("optimal_ps_delta%g", d)] = analytic.OptimalJoinPs(float64(o.N), d)
	}
	res.Values["sim_argmin_ps"] = sim[0].ArgMin()
	res.Notes = append(res.Notes,
		"paper: join latency is minimized around p_s = 0.7 (δ=2); larger δ shifts the minimum right and lowers the curve")
	return res, nil
}

// RunFig3b regenerates Fig. 3b: the average data lookup latency (hops) as a
// function of p_s for δ in {2, 3, 4}, plus the measured hop count of
// simulated lookups at δ = 3. The curves must be flat-high for p_s < 0.5 and
// fall as p_s grows, with larger δ below smaller δ.
func RunFig3b(o Options) (*Result, error) {
	res := newResult("Fig3b")
	points := o.psPoints()
	keys := workload.Keys(o.Items)

	sim, cells, err := grid(o, []string{"simulated δ=3"}, points, func(_ int, ps float64) (histVal, error) {
		cfg := expConfig(ps)
		cfg.TTL = fig3TTL
		sc, err := buildScenario(o, cfg, o.Seed+100+int64(ps*100), nil, keys)
		if err != nil {
			return histVal{}, err
		}
		rs, err := sc.lookups(o.Lookups, fig3TTL, keys, sc.anyLive, func(i int) int { return i })
		if err != nil {
			return histVal{}, err
		}
		sc.observe(o, fmt.Sprintf("Fig3b ps=%.2f", ps))
		return histVal{meanHops(rs), sc.histPoint()}, nil
	})
	if err != nil {
		return nil, err
	}
	curves := append(analyticCurves(o, points, analytic.LookupLatency), sim...)
	res.Tables = append(res.Tables, curveTable("Fig 3b: average lookup latency (hops) vs p_s", "p_s", "%.2f", points, curves))
	if o.Hist {
		res.Tables = append(res.Tables, histSupplement(
			"Fig 3b supplement: simulated lookup percentiles per p_s", []string{""}, points, cells))
	}

	res.Values["sim_hops_at_low_ps"] = sim[0].Y[0]
	res.Values["sim_hops_at_high_ps"] = sim[0].Y[len(points)-1]
	res.Notes = append(res.Notes,
		"paper: latency is flat for p_s < 0.5 (lookups dominated by the t-network) and falls as p_s grows")
	return res, nil
}
