package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gnutella"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// RunAblationTree quantifies the design decision of §3.2.2: tree-shaped
// s-networks deliver each flooded query to each peer exactly once, while a
// Gnutella-style mesh of the same population re-delivers queries over cross
// links. The experiment floods the same workload over both and reports
// deliveries and duplicates per query.
func RunAblationTree(o Options) (*Result, error) {
	res := newResult("AblationTree")

	keys := workload.Keys(o.Items / 2)
	if len(keys) == 0 {
		return nil, errNoKeys // the mesh arm indexes keys without the scenario's check
	}
	queries := o.Lookups / 2

	// Both arms flood the same workload over the shared topology; each is
	// an independent simulation, so they run as two worker-pool tasks.
	type arm struct {
		delPerQuery, dupPerQuery, success float64
	}
	arms, err := sweep(o, 2, func(i int) (arm, error) {
		if i == 1 {
			// The hybrid tree: same scale at p_s = 0.9 so floods dominate.
			sc, err := buildScenario(o, expConfig(0.9), o.Seed+701, nil, keys)
			if err != nil {
				return arm{}, err
			}
			rs, err := sc.lookups(queries, 4, keys, sc.anyLive, func(k int) int { return k })
			if err != nil {
				return arm{}, err
			}
			sc.observe(o, "AblationTree hybrid")
			return arm{
				delPerQuery: float64(totalContacts(rs)) / float64(len(rs)),
				success:     1 - failureRatio(rs),
			}, nil
		}

		topo, err := expTopology(o, o.topoSeed())
		if err != nil {
			return arm{}, err
		}
		eng := sim.New(o.Seed + 700)
		net := simnet.New(eng, topo, simnet.DefaultConfig())
		gcfg := gnutella.DefaultConfig()
		gcfg.DegreeTarget = 4
		gnet := gnutella.NewNetwork(simnet.NewRuntime(eng, net), gcfg)

		stubs := topo.StubNodes()
		peers := make([]*gnutella.Peer, o.N)
		for i := range peers {
			peers[i] = gnet.Join(stubs[eng.Rand().Intn(len(stubs))], 1)
		}
		for i, key := range keys {
			peers[(i*13)%len(peers)].StoreLocal(key, "v")
		}

		hits := 0
		for i := 0; i < queries; i++ {
			var done bool
			ok := false
			peers[(i*29)%len(peers)].Lookup(keys[i%len(keys)], 5, func(r gnutella.Result) {
				done = true
				ok = r.OK
			})
			for !done && eng.Step() {
			}
			if ok {
				hits++
			}
		}
		return arm{
			delPerQuery: float64(gnet.QueryDeliveries) / float64(queries),
			dupPerQuery: float64(gnet.DuplicateDeliveries) / float64(queries),
			success:     float64(hits) / float64(queries),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	mesh, tree := arms[0], arms[1]

	t := metrics.NewTable("Ablation: mesh flooding vs tree s-networks",
		"topology", "deliveries/query", "duplicates/query", "success")
	t.AddRow("gnutella mesh (deg 4, TTL 5)", mesh.delPerQuery, mesh.dupPerQuery, mesh.success)
	t.AddRow("hybrid tree (p_s=0.9, TTL 4)", tree.delPerQuery, 0.0, tree.success)
	res.Tables = append(res.Tables, t)

	res.Values["mesh_duplicates_per_query"] = mesh.dupPerQuery
	res.Values["tree_duplicates_per_query"] = 0
	res.Values["mesh_deliveries_per_query"] = mesh.delPerQuery
	res.Values["tree_contacts_per_query"] = tree.delPerQuery
	res.Notes = append(res.Notes,
		"a tree guarantees each peer receives the query exactly once; the mesh pays extra bandwidth for duplicates")
	return res, nil
}

// RunAblationBypass quantifies §5.4: with bypass links, repeated
// cross-s-network lookups divert from the t-network onto direct shortcuts,
// reducing ring forwarding and latency under a skewed (repeat-heavy)
// workload.
func RunAblationBypass(o Options) (*Result, error) {
	res := newResult("AblationBypass")

	keys := workload.Keys(200) // small, hot key set so repeats hit bypass links
	modes := []struct {
		name, tag string
		bypass    bool
	}{
		{"no bypass", "nobypass", false},
		{"bypass links", "bypass", true},
	}

	type bypassArm struct {
		ringPer, latency, success float64
		uses                      uint64
	}
	arms, err := sweep(o, len(modes), func(i int) (bypassArm, error) {
		mode := modes[i]
		cfg := expConfig(0.7)
		cfg.Bypass = mode.bypass
		sc, err := buildScenario(o, cfg, o.Seed+720, nil, keys)
		if err != nil {
			return bypassArm{}, err
		}
		// Bypass links live per peer, so they only pay off for peers that
		// repeatedly reach the same remote s-networks: route the workload
		// through a small set of heavy consumers (leaf s-peers with spare
		// degree, per rule 1).
		var origins []*core.Peer
		for _, sp := range sc.Sys.SPeers() {
			if sp.Degree() == 1 {
				origins = append(origins, sp)
				if len(origins) == 10 {
					break
				}
			}
		}
		if len(origins) == 0 {
			if origins = sc.Sys.Peers(); len(origins) < 10 {
				return bypassArm{}, fmt.Errorf("exp: %d peers and no leaf s-peer among them: too few for 10 heavy consumers", len(origins))
			}
			origins = origins[:10]
		}
		consumer := func(i int) *core.Peer { return origins[i%len(origins)] }
		before := sc.Sys.Stats().RingForwards
		rs, err := sc.lookups(o.Lookups/2, 4, keys, consumer, func(k int) int { return k })
		if err != nil {
			return bypassArm{}, err
		}
		after := sc.Sys.Stats()
		sc.observe(o, "AblationBypass "+mode.name)
		return bypassArm{
			ringPer: float64(after.RingForwards-before) / float64(len(rs)),
			latency: meanLatencyMs(rs),
			success: 1 - failureRatio(rs),
			uses:    after.BypassUses,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Ablation: bypass links (p_s=0.7, hot keys, 10 heavy consumers)",
		"mode", "ring-forwards/lookup", "mean latency ms", "bypass uses", "success")
	for i, mode := range modes {
		a := arms[i]
		t.AddRow(mode.name, a.ringPer, a.latency, a.uses, a.success)
		res.Values["ringforwards_"+mode.tag] = a.ringPer
		res.Values["latency_"+mode.tag] = a.latency
		res.Values["uses_"+mode.tag] = float64(a.uses)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"bypass links shed repeated cross-s-network traffic from the t-network (§5.4)")
	return res, nil
}
