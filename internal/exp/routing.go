package exp

import (
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// RunAblationRouting quantifies α-parallel ring probes: the same hybrid
// system at p_s = 0.7 is run with the default finger walk (α = 1) and with
// α = 3 parallel probes, both under one identical fault schedule (a 10%
// crash wave followed by 5% message drop/duplication with delay jitter).
// Parallel probes buy loss tolerance — a lookup only fails when every
// outstanding probe is lost — so the α = 3 arm must strictly beat the
// baseline on failure ratio or latency.
func RunAblationRouting(o Options) (*Result, error) {
	res := newResult("AblationRouting")

	keys := workload.Keys(o.Items / 2)
	queries := o.Lookups / 2

	modes := []struct {
		name, tag string
		alpha     int
	}{
		{"hybrid alpha=1 (baseline walk)", "alpha1", 1},
		{"hybrid alpha=3", "alpha3", 3},
	}

	type routingArm struct {
		failure, latency float64
		probes           uint64
	}
	arms, err := sweep(o, len(modes), func(i int) (routingArm, error) {
		mode := modes[i]
		// Every arm sees the identical fault schedule: same engine seed, same
		// crash wave, same drop/dup rates with the same fault seed. Only the
		// routing knobs differ.
		fc := simnet.FaultConfig{
			DropRate:  0.05,
			DupRate:   0.05,
			JitterMax: 10 * sim.Millisecond,
			Seed:      5100,
		}
		cfg := expConfig(0.7)
		cfg.LookupAlpha = mode.alpha
		sc, err := buildScenario(o, cfg, o.Seed+990, nil, keys)
		if err != nil {
			return routingArm{}, err
		}
		// The crash wave creates suspects and dead holders; the injected loss
		// afterwards exercises the α probes.
		sc.crashFraction(0.10)
		// Warm pass with clean delivery: lets read-repair restore replicas,
		// modeling a population that has looked keys up before the loss sets
		// in.
		if _, err := sc.lookups(queries/2, 4, keys, sc.anyLive, func(k int) int { return k }); err != nil {
			return routingArm{}, err
		}
		sc.Net.SetFaults(simnet.NewFaults(fc))
		rs, err := sc.lookups(queries, 4, keys, sc.anyLive, func(k int) int { return k })
		if err != nil {
			return routingArm{}, err
		}
		sc.Net.SetFaults(nil)
		st := sc.Sys.Stats()
		sc.observe(o, "AblationRouting "+mode.name)
		return routingArm{
			failure: failureRatio(rs),
			latency: meanLatencyMs(rs),
			probes:  st.ProbesSent,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Ablation: routing seam under faults (p_s=0.7, 10% crash wave, 5% drop/dup)",
		"mode", "failure", "mean latency ms", "extra probes")
	for i, mode := range modes {
		a := arms[i]
		t.AddRow(mode.name, a.failure, a.latency, int(a.probes))
		res.Values[mode.tag+"_failure"] = a.failure
		res.Values[mode.tag+"_latency_ms"] = a.latency
		res.Values[mode.tag+"_probes"] = float64(a.probes)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"α parallel probes tolerate message loss (a lookup fails only when every probe is lost)")
	return res, nil
}
