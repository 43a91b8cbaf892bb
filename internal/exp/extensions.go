package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// RunExtCaching evaluates the caching scheme the paper's conclusion proposes
// as future work: under a Zipf-skewed lookup workload, hot items overwhelm
// their holders; with caching the load spreads to surrogates. Reported per
// mode: the hottest peer's serve count, the serve-count Gini, and mean
// latency.
func RunExtCaching(o Options) (*Result, error) {
	res := newResult("ExtCaching")

	keys := workload.Keys(o.Items / 4) // small universe so Zipf repeats bite
	modes := []struct {
		name, tag string
		caching   bool
	}{
		{"no caching", "nocache", false},
		{"with caching", "cache", true},
	}

	type cacheArm struct {
		maxServes     uint64
		gini, latency float64
		pushes, hits  uint64
	}
	arms, err := sweep(o, len(modes), func(i int) (cacheArm, error) {
		mode := modes[i]
		cfg := expConfig(0.8)
		cfg.Caching = mode.caching
		sc, err := buildScenario(o, cfg, o.Seed+900, nil, keys)
		if err != nil {
			return cacheArm{}, err
		}
		zipf, err := workload.NewZipfPicker(sc.Eng.Rand(), 1.3, 1, len(keys))
		if err != nil {
			return cacheArm{}, err
		}
		rs, err := sc.lookups(o.Lookups, 4, keys, sc.anyLive, func(int) int { return zipf.Pick() })
		if err != nil {
			return cacheArm{}, err
		}
		var a cacheArm
		var serves []int
		for _, p := range sc.Sys.Peers() {
			serves = append(serves, int(p.ServeCount()))
			if p.ServeCount() > a.maxServes {
				a.maxServes = p.ServeCount()
			}
		}
		st := sc.Sys.Stats()
		a.gini = gini(serves)
		a.latency = meanLatencyMs(rs)
		a.pushes, a.hits = st.CachePushes, st.CacheHits
		sc.observe(o, "ExtCaching "+mode.name)
		return a, nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Extension: future-work caching under Zipf lookups (p_s=0.8)",
		"mode", "max serves", "serve gini", "mean ms", "cache pushes", "cache hits")
	for i, mode := range modes {
		a := arms[i]
		t.AddRow(mode.name, a.maxServes, a.gini, a.latency, a.pushes, a.hits)
		res.Values["maxserves_"+mode.tag] = float64(a.maxServes)
		res.Values["gini_"+mode.tag] = a.gini
		res.Values["latency_"+mode.tag] = a.latency
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"paper (future work): 'distribute the load among as many peers as possible so that no peer is overwhelmed'")
	return res, nil
}

// RunLinkStress measures the §5.2 motivation directly: the maximum physical
// link stress (copies of overlay messages crossing one physical link) with
// and without topology-aware peer clustering.
func RunLinkStress(o Options) (*Result, error) {
	res := newResult("LinkStress")

	keys := workload.Keys(o.Items / 2)
	modes := []struct {
		name, tag string
		aware     bool
	}{
		{"basic", "basic", false},
		{"topology-aware (8 landmarks)", "aware", true},
	}

	type stressArm struct {
		maxStress, latency float64
	}
	arms, err := sweep(o, len(modes), func(i int) (stressArm, error) {
		// Only this experiment pays for per-link counting, so it hands
		// construct its own message-layer configuration.
		ncfg := simnet.DefaultConfig()
		ncfg.TrackLinkStress = true
		cfg := expConfig(0.7)
		if modes[i].aware {
			cfg.Landmarks = 8
		}
		sc, err := construct(o, nil, ncfg, cfg, o.Seed+920)
		if err != nil {
			return stressArm{}, err
		}
		if err := sc.populate(o.N, nil); err != nil {
			return stressArm{}, err
		}
		if err := sc.storeItems(keys); err != nil {
			return stressArm{}, err
		}
		rs, err := sc.lookups(o.Lookups/2, 4, keys, sc.anyLive, func(k int) int { return k })
		if err != nil {
			return stressArm{}, err
		}
		sc.observe(o, "LinkStress "+modes[i].tag)
		return stressArm{
			maxStress: float64(sc.Net.MaxLinkStress()),
			latency:   meanLatencyMs(rs),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Extension: physical link stress with/without topology awareness (p_s=0.7)",
		"mode", "max link stress", "mean ms")
	for i, mode := range modes {
		a := arms[i]
		t.AddRow(mode.name, a.maxStress, a.latency)
		res.Values["maxstress_"+mode.tag] = a.maxStress
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"link stress: 'the number of copies of a message transmitted over a certain physical link' (§5.2)")
	return res, nil
}

// RunChurn runs the system under live Poisson churn — joins, graceful leaves
// and crashes arriving concurrently with the lookup workload — and reports
// failure ratio and recovery counters per churn intensity. This extends
// Fig. 5b from a one-shot crash wave to sustained membership turnover.
func RunChurn(o Options) (*Result, error) {
	res := newResult("Churn")

	intensities := []struct {
		name               string
		join, leave, crash float64 // events per simulated second
	}{
		{"calm (0.2/s)", 0.1, 0.05, 0.05},
		{"busy (1/s)", 0.5, 0.25, 0.25},
		{"storm (4/s)", 2, 1, 1},
	}
	keys := workload.Keys(o.Items / 2)

	type churnArm struct {
		failure, latency    float64
		promotions, rejoins int
		peersEnd            int
	}
	arms, err := sweep(o, len(intensities), func(i int) (churnArm, error) {
		in := intensities[i]
		sc, err := buildScenario(o, expConfig(0.7), o.Seed+930+int64(i), nil, keys)
		if err != nil {
			return churnArm{}, err
		}
		schedule := workload.PoissonSchedule(sc.Eng.Rand(), workload.ChurnConfig{
			Duration:  120 * sim.Second,
			JoinRate:  in.join,
			LeaveRate: in.leave,
			CrashRate: in.crash,
		})
		applyChurn(sc, schedule)

		rs, err := sc.lookups(o.Lookups/3, 4, keys, sc.anyLive, func(k int) int { return k })
		if err != nil {
			return churnArm{}, err
		}
		if err := sc.Sys.CheckRing(); err != nil {
			return churnArm{}, fmt.Errorf("ring broken after churn %q: %w", in.name, err)
		}
		if err := sc.Sys.CheckTrees(); err != nil {
			return churnArm{}, fmt.Errorf("trees broken after churn %q: %w", in.name, err)
		}
		st := sc.Sys.Stats()
		sc.observe(o, "Churn "+in.name)
		return churnArm{
			failure:    failureRatio(rs),
			latency:    meanLatencyMs(rs),
			promotions: st.Promotions,
			rejoins:    st.Rejoins,
			peersEnd:   sc.Sys.NumPeers(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Extension: lookups under live churn (p_s=0.7)",
		"churn", "failure", "mean ms", "promotions", "rejoins", "peers end")
	for i, in := range intensities {
		a := arms[i]
		t.AddRow(in.name, a.failure, a.latency, a.promotions, a.rejoins, a.peersEnd)
		res.Values[fmt.Sprintf("churnfail_%d", i)] = a.failure
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"the ring and tree invariants are re-verified after every churn phase")
	return res, nil
}

// applyChurn executes a churn schedule against a built scenario: joins use
// fresh hosts, leaves/crashes resolve their population index against the
// currently live peers.
func applyChurn(sc *scenario, schedule []workload.ChurnEvent) {
	sys := sc.Sys
	stubs := sc.Topo.StubNodes()
	base := sc.Eng.Now()
	for _, ev := range schedule {
		ev := ev
		sc.Eng.At(base+ev.At, func() {
			switch ev.Kind {
			case workload.Join:
				sys.Join(core.JoinOpts{
					Host:     stubs[sc.Eng.Rand().Intn(len(stubs))],
					Capacity: 1,
				}, nil)
			case workload.Leave, workload.Crash:
				live := sys.Peers()
				if len(live) <= 3 {
					return
				}
				p := live[ev.Peer%len(live)]
				if ev.Kind == workload.Leave {
					p.Leave()
				} else {
					p.Crash()
				}
			}
		})
	}
	// Run through the churn phase plus a recovery window: failure
	// detection (HELLO timeouts), server arbitration and ring
	// stabilization all need a few rounds to quiesce after the last event.
	sys.Settle(120*sim.Second + 10*sys.Cfg.HelloTimeout + 10*sys.Cfg.FingerRefreshEvery)
}
