package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// ttls are the flood radii Fig. 5a and Table 2 compare.
var ttls = []int{1, 2, 4}

// ttlCells is the sweep Fig. 5a and Table 2 share: one system per p_s point
// (config(ps), seeded seedOff past the run's seed), and on it one batch of
// o.Lookups/len(ttls) lookups per TTL, the k-th for key pick(ti, ttl, k).
// out[pi][ti] is measure over the batch at points[pi], ttls[ti].
func ttlCells(o Options, id string, seedOff int64, config func(ps float64) core.Config,
	pick func(ti, ttl, k int) int, measure func([]core.OpResult) float64) ([][]float64, error) {
	keys := workload.Keys(o.Items)
	return sweepPoints(o, o.psPoints(), func(_ int, ps float64) ([]float64, error) {
		sc, err := buildScenario(o, config(ps), o.Seed+seedOff+int64(ps*100), nil, keys)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(ttls))
		for ti, ttl := range ttls {
			rs, err := sc.lookups(o.Lookups/len(ttls), ttl, keys, sc.anyLive, func(k int) int { return pick(ti, ttl, k) })
			if err != nil {
				return nil, err
			}
			out[ti] = measure(rs)
		}
		sc.observe(o, fmt.Sprintf("%s ps=%.2f", id, ps))
		return out, nil
	})
}

// RunFig5a regenerates Fig. 5a: the lookup failure ratio as a function of
// p_s under TTL in {1, 2, 4}. Expected shape: ~0 for p_s < 0.5 (s-networks
// average less than one peer, every flood covers them) and rising sharply
// afterwards, with larger TTLs much flatter.
func RunFig5a(o Options) (*Result, error) {
	res := newResult("Fig5a")
	points := o.psPoints()

	fails, err := ttlCells(o, "Fig5a", 200, expConfig,
		func(ti, _, k int) int { return k*7 + ti }, failureRatio)
	if err != nil {
		return nil, err
	}
	curves := make([]*metrics.Series, len(ttls))
	for ti, ttl := range ttls {
		curves[ti] = &metrics.Series{Name: fmt.Sprintf("TTL=%d", ttl)}
		for pi, ps := range points {
			curves[ti].Add(ps, fails[pi][ti])
		}
	}
	res.Tables = append(res.Tables, curveTable("Fig 5a: lookup failure ratio vs p_s", "p_s", "%.2f", points, curves))

	for i, ttl := range ttls {
		lo, _ := curves[i].YAt(pointNear(points, 0.3))
		hi, _ := curves[i].YAt(0.9)
		res.Values[fmt.Sprintf("fail_ttl%d_low_ps", ttl)] = lo
		res.Values[fmt.Sprintf("fail_ttl%d_ps0.9", ttl)] = hi
	}
	res.Notes = append(res.Notes,
		"paper: failure ratio ~0 for p_s<0.5; at p_s=0.9 it reaches ~18% (TTL=1), ~14% (TTL=2), ~4% (TTL=4)")
	return res, nil
}

// RunFig5b regenerates Fig. 5b: the lookup failure ratio when a fraction of
// peers crash without transferring their load, under several p_s values with
// the improved placement scheme. Expected shape: failure ratio grows
// ~linearly with the crashed fraction and is nearly independent of p_s.
func RunFig5b(o Options) (*Result, error) {
	res := newResult("Fig5b")

	psValues := []float64{0.1, 0.5, 0.9}
	fractions := []float64{0, 0.05, 0.1, 0.2, 0.3}
	if o.Quick {
		fractions = []float64{0, 0.1, 0.2}
	}
	keys := workload.Keys(o.Items)

	arms := make([]string, len(psValues))
	for i, ps := range psValues {
		arms[i] = fmt.Sprintf("p_s=%.1f", ps)
	}
	curves, _, err := grid(o, arms, fractions, func(arm int, f float64) (histVal, error) {
		ps := psValues[arm]
		sc, err := buildScenario(o, expConfig(ps), o.Seed+300+int64(ps*100)+int64(f*1000), nil, keys)
		if err != nil {
			return histVal{}, err
		}
		sc.crashFraction(f)
		rs, err := sc.lookups(o.Lookups/len(fractions), 4, keys, sc.anyLive, func(k int) int { return k })
		if err != nil {
			return histVal{}, err
		}
		sc.observe(o, fmt.Sprintf("Fig5b ps=%.1f crash=%.2f", ps, f))
		return histVal{v: failureRatio(rs)}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, curveTable(
		"Fig 5b: lookup failure ratio vs crashed fraction (scheme 2)", "crashed", "%.2f", fractions, curves))

	for i, ps := range psValues {
		res.Values[fmt.Sprintf("crashfail_ps%.1f_base", ps)] = curves[i].Y[0]
		res.Values[fmt.Sprintf("crashfail_ps%.1f_worst", ps)] = curves[i].Y[len(fractions)-1]
	}
	res.Notes = append(res.Notes,
		"paper: the failure ratio rises linearly with the crashed fraction; changing p_s has little effect under scheme 2")
	return res, nil
}
