package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
)

// RunFig6a regenerates Fig. 6a: the average lookup latency (simulated
// milliseconds) with and without link heterogeneity support, as p_s grows.
// With heterogeneity the server makes the fastest third of peers t-peers and
// connect points gate on link usage, which should cut latency most visibly
// for p_s between 0.4 and 0.8 (the paper reports ~20% at p_s = 0.7).
func RunFig6a(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("Fig6a")

	points := o.psPoints()
	keys := keysFor(o)
	modes := []struct {
		name   string
		hetero bool
	}{
		{"basic", false},
		{"heterogeneity", true},
	}

	lats, err := sweep(o, len(modes)*len(points), func(i int) (histVal, error) {
		mode := modes[i/len(points)]
		ps := points[i%len(points)]
		cfg := paperRoutingConfig(ps)
		cfg.Heterogeneity = mode.hetero
		sc, err := buildScenario(o, cfg, o.Seed+400+int64(ps*100), capacities13(o.N), nil)
		if err != nil {
			return histVal{}, err
		}
		if _, err := sc.storeItems(keys); err != nil {
			return histVal{}, err
		}
		rs, err := sc.lookupBatch(o.Lookups/2, 4, keys, func(k int) int { return k })
		if err != nil {
			return histVal{}, err
		}
		sc.observe(o, fmt.Sprintf("Fig6a %s ps=%.2f", mode.name, ps))
		return histVal{meanLatencyMs(rs), sc.histPoint()}, nil
	})
	if err != nil {
		return nil, err
	}
	curves := make([]*metrics.Series, len(modes))
	for i, mode := range modes {
		curves[i] = &metrics.Series{Name: mode.name}
		for pi, ps := range points {
			curves[i].Add(ps, lats[i*len(points)+pi].v)
		}
	}

	t := metrics.NewTable("Fig 6a: average lookup latency (ms) with/without link heterogeneity")
	t.Headers = append([]string{"p_s"}, seriesNames(curves)...)
	for i, ps := range points {
		row := []any{fmt.Sprintf("%.2f", ps)}
		for _, c := range curves {
			row = append(row, c.Y[i])
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	if o.Hist {
		labels := make([]string, len(lats))
		hps := make([]histPoint, len(lats))
		for i := range lats {
			labels[i] = fmt.Sprintf("%s ps=%.2f", modes[i/len(points)].name, points[i%len(points)])
			hps[i] = lats[i].hp
		}
		res.Tables = append(res.Tables, histTable(
			"Fig 6a supplement: lookup latency percentiles per mode and p_s", labels, hps))
	}

	mid := pointNear(points, 0.7)
	base, _ := curves[0].YAt(mid)
	het, _ := curves[1].YAt(mid)
	res.Values["latency_basic_ps0.7"] = base
	res.Values["latency_hetero_ps0.7"] = het
	if base > 0 {
		res.Values["hetero_improvement_ps0.7"] = (base - het) / base
	}
	res.Notes = append(res.Notes,
		"paper: latency decreases with p_s; heterogeneity support lowers it further, most visibly for p_s in [0.4, 0.8]")
	return res, nil
}

// RunFig6b regenerates Fig. 6b: the average lookup latency with and without
// topology awareness (landmark binning), for 8 and 12 landmarks. The aware
// curves should drop faster as p_s grows and converge with the basic curve
// near p_s = 0.9.
func RunFig6b(o Options) (*Result, error) {
	o = o.normalize()
	res := newResult("Fig6b")

	points := o.psPoints()
	keys := keysFor(o)
	modes := []struct {
		name      string
		aware     bool
		landmarks int
	}{
		{"basic", false, 0},
		{"topo-aware L=8", true, 8},
		{"topo-aware L=12", true, 12},
	}

	lats, err := sweep(o, len(modes)*len(points), func(i int) (histVal, error) {
		mode := modes[i/len(points)]
		ps := points[i%len(points)]
		cfg := paperRoutingConfig(ps)
		if mode.aware {
			cfg.Landmarks = mode.landmarks
			cfg.Assignment = core.AssignCluster
		}
		sc, err := buildScenario(o, cfg, o.Seed+500+int64(ps*100), nil, nil)
		if err != nil {
			return histVal{}, err
		}
		if _, err := sc.storeItems(keys); err != nil {
			return histVal{}, err
		}
		rs, err := sc.lookupBatch(o.Lookups/3, 4, keys, func(k int) int { return k })
		if err != nil {
			return histVal{}, err
		}
		sc.observe(o, fmt.Sprintf("Fig6b %s ps=%.2f", mode.name, ps))
		return histVal{meanLatencyMs(rs), sc.histPoint()}, nil
	})
	if err != nil {
		return nil, err
	}
	curves := make([]*metrics.Series, len(modes))
	for i, mode := range modes {
		curves[i] = &metrics.Series{Name: mode.name}
		for pi, ps := range points {
			curves[i].Add(ps, lats[i*len(points)+pi].v)
		}
	}

	t := metrics.NewTable("Fig 6b: average lookup latency (ms) with/without topology awareness")
	t.Headers = append([]string{"p_s"}, seriesNames(curves)...)
	for i, ps := range points {
		row := []any{fmt.Sprintf("%.2f", ps)}
		for _, c := range curves {
			row = append(row, c.Y[i])
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	if o.Hist {
		labels := make([]string, len(lats))
		hps := make([]histPoint, len(lats))
		for i := range lats {
			labels[i] = fmt.Sprintf("%s ps=%.2f", modes[i/len(points)].name, points[i%len(points)])
			hps[i] = lats[i].hp
		}
		res.Tables = append(res.Tables, histTable(
			"Fig 6b supplement: lookup latency percentiles per mode and p_s", labels, hps))
	}

	mid := pointNear(points, 0.3)
	basic, _ := curves[0].YAt(mid)
	aware8, _ := curves[1].YAt(mid)
	aware12, _ := curves[2].YAt(mid)
	res.Values["latency_basic_ps0.3"] = basic
	res.Values["latency_aware8_ps0.3"] = aware8
	res.Values["latency_aware12_ps0.3"] = aware12
	res.Notes = append(res.Notes,
		"paper: awareness helps most around p_s = 0.3; more landmarks help more; curves merge near p_s = 0.9")
	return res, nil
}
