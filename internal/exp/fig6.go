package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// latencyArm is one curve of Fig. 6a or 6b: a name and what it changes in
// the successor-walk configuration every arm starts from.
type latencyArm struct {
	name string
	tune func(*core.Config)
}

// latencyVsPs is the body Fig. 6a and 6b share: per (arm, p_s) cell one
// system (seeded seedOff past the run's seed, the same for every arm, over
// capacities), o.Lookups/len(arms) TTL-4 lookups, mean latency in simulated
// milliseconds. fig is the figure's number ("6a"), what the feature its title
// says the curves are with/without. It returns the result holding the curve
// table (and the -hist supplement) and the curves, one per arm.
func latencyVsPs(o Options, fig, what string, seedOff int64, capacities []float64, arms []latencyArm) (*Result, []*metrics.Series, error) {
	res := newResult("Fig" + fig)
	points := o.psPoints()
	keys := workload.Keys(o.Items)
	names := make([]string, len(arms))
	for i, arm := range arms {
		names[i] = arm.name
	}

	curves, cells, err := grid(o, names, points, func(arm int, ps float64) (histVal, error) {
		cfg := paperRoutingConfig(ps)
		arms[arm].tune(&cfg)
		sc, err := buildScenario(o, cfg, o.Seed+seedOff+int64(ps*100), capacities, keys)
		if err != nil {
			return histVal{}, err
		}
		rs, err := sc.lookups(o.Lookups/len(arms), 4, keys, sc.anyLive, func(k int) int { return k })
		if err != nil {
			return histVal{}, err
		}
		sc.observe(o, fmt.Sprintf("Fig%s %s ps=%.2f", fig, names[arm], ps))
		return histVal{meanLatencyMs(rs), sc.histPoint()}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res.Tables = append(res.Tables, curveTable(
		fmt.Sprintf("Fig %s: average lookup latency (ms) with/without %s", fig, what), "p_s", "%.2f", points, curves))
	if o.Hist {
		res.Tables = append(res.Tables, histSupplement(
			fmt.Sprintf("Fig %s supplement: lookup latency percentiles per mode and p_s", fig), names, points, cells))
	}
	return res, curves, nil
}

// RunFig6a regenerates Fig. 6a: the average lookup latency (simulated
// milliseconds) with and without link heterogeneity support, as p_s grows.
// With heterogeneity the server makes the fastest third of peers t-peers and
// connect points gate on link usage, which should cut latency most visibly
// for p_s between 0.4 and 0.8 (the paper reports ~20% at p_s = 0.7).
func RunFig6a(o Options) (*Result, error) {
	// Both arms run over the paper's 1/3-1/3-1/3 capacity mix.
	res, curves, err := latencyVsPs(o, "6a", "link heterogeneity", 400, workload.CapacityClasses(o.N), []latencyArm{
		{"basic", func(*core.Config) {}},
		{"heterogeneity", func(c *core.Config) { c.Heterogeneity = true }},
	})
	if err != nil {
		return nil, err
	}
	mid := pointNear(o.psPoints(), 0.7)
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
	aware := func(landmarks int) func(*core.Config) {
		return func(c *core.Config) {
			c.Landmarks = landmarks
			c.Assignment = core.AssignCluster
		}
	}
	res, curves, err := latencyVsPs(o, "6b", "topology awareness", 500, nil, []latencyArm{
		{"basic", func(*core.Config) {}},
		{"topo-aware L=8", aware(8)},
		{"topo-aware L=12", aware(12)},
	})
	if err != nil {
		return nil, err
	}
	mid := pointNear(o.psPoints(), 0.3)
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
