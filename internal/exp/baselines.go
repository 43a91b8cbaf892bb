package exp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/gnutella"
	"repro/internal/kad"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// overlay is what the baseline driver needs from a standalone system: add a
// node, store a key from the i-th node, look a key up from the i-th node.
type overlay struct {
	join   func(id uint64, host int)
	store  func(origin int, key string, done func())
	lookup func(origin int, key string, done func(ok bool, hops int, latency sim.Time))
}

// baselineWarmup is the quiet time every arm gets before its lookups: after
// the last join for a standalone overlay, after the stores for a hybrid arm,
// so that no arm is measured on routing state that is still converging.
const baselineWarmup = 30 * sim.Second

// baseline is one standalone comparator. Everything that differs between
// the arms apart from the protocol itself is data here; the values are part
// of the committed output (seeds, draw order, settle times, origin strides).
type baseline struct {
	name, tag      string
	seed           int64    // offset from Options.Seed
	drawsID        bool     // a node draws an overlay id before its host
	joinSettle     sim.Time // simulated time each join gets to stabilize
	storeStride    int      // the i-th key is stored from node i*storeStride
	lookupStride   int      // the i-th lookup starts at node i*lookupStride
	noLatencyValue bool     // latency is tabulated but not a key value
	build          func(*simnet.Runtime) overlay
}

var baselines = []baseline{
	{
		name: "gnutella (pure unstructured, TTL 5)", tag: "gnutella", seed: 810,
		storeStride: 13, lookupStride: 19, noLatencyValue: true,
		build: func(rt *simnet.Runtime) overlay {
			net := gnutella.NewNetwork(rt, gnutella.DefaultConfig())
			var peers []*gnutella.Peer
			return overlay{
				join: func(_ uint64, host int) { peers = append(peers, net.Join(host, 1)) },
				store: func(i int, key string, done func()) {
					peers[i].StoreLocal(key, "v")
					done()
				},
				lookup: func(i int, key string, done func(bool, int, sim.Time)) {
					peers[i].Lookup(key, 5, func(r gnutella.Result) { done(r.OK, r.Hops, r.Latency) })
				},
			}
		},
	},
	{
		name: "kademlia (α=3, k=8 iterative)", tag: "kad", seed: 830, drawsID: true,
		joinSettle: 200 * sim.Millisecond, storeStride: 11, lookupStride: 17,
		build: func(rt *simnet.Runtime) overlay {
			kcfg := kad.DefaultConfig()
			kcfg.K = 8 // replica sets sized for paper-scale swarms, not the open internet
			net := kad.NewNetwork(rt, kcfg)
			var nodes []*kad.Node
			return overlay{
				join: func(id uint64, host int) {
					boot := kad.NilContact
					if len(nodes) > 0 {
						boot = kad.Contact{ID: nodes[0].ID, Addr: nodes[0].Addr}
					}
					var b [8]byte
					binary.BigEndian.PutUint64(b[:], id)
					nodes = append(nodes, net.CreateNode(kad.HashBytes(b[:]), host, 1, boot))
				},
				store: func(i int, key string, done func()) {
					nodes[i].Store(key, "v", func(kad.Result) { done() })
				},
				lookup: func(i int, key string, done func(bool, int, sim.Time)) {
					nodes[i].Lookup(key, func(r kad.Result) { done(r.OK, r.Hops, r.Latency) })
				},
			}
		},
	},
}

// baselineRow is one line of the comparison table.
type baselineRow struct {
	name, tag              string
	hops, latency, failure float64
	noLatencyValue         bool
}

// runBaseline builds one standalone overlay of o.N nodes on the shared
// topology, stores keys, runs queries lookups and tallies them.
func runBaseline(o Options, b baseline, keys []string, queries int) (baselineRow, error) {
	topo, err := expTopology(o, o.topoSeed())
	if err != nil {
		return baselineRow{}, err
	}
	eng := sim.New(o.Seed + b.seed)
	ov := b.build(simnet.NewRuntime(eng, simnet.New(eng, topo, simnet.DefaultConfig())))
	stubs, rng := topo.StubNodes(), eng.Rand()
	for i := 0; i < o.N; i++ {
		var id uint64
		if b.drawsID {
			id = rng.Uint64()
		}
		ov.join(id, stubs[rng.Intn(len(stubs))])
		if b.joinSettle > 0 {
			eng.RunUntil(eng.Now() + b.joinSettle)
		}
	}
	eng.RunUntil(eng.Now() + baselineWarmup)

	for i, key := range keys {
		done := false
		ov.store((i*b.storeStride)%o.N, key, func() { done = true })
		for !done && eng.Step() {
		}
	}
	var hops, lat metrics.Summary
	fails := 0
	for i := 0; i < queries; i++ {
		done, found := false, false
		ov.lookup((i*b.lookupStride)%o.N, keys[i%len(keys)], func(ok bool, h int, l sim.Time) {
			done, found = true, ok
			if ok {
				hops.Add(float64(h))
				lat.Add(float64(l) / float64(sim.Millisecond))
			}
		})
		for !done && eng.Step() {
		}
		if !found {
			fails++
		}
	}
	return baselineRow{
		name: b.name, tag: b.tag,
		hops: hops.Mean(), latency: lat.Mean(),
		failure:        float64(fails) / float64(queries),
		noLatencyValue: b.noLatencyValue,
	}, nil
}

// RunBaselines compares the standalone Gnutella and Kademlia implementations
// against the hybrid system at p_s = 0, 0.3 and 0.7 on the same topology and
// workload: mean lookup hops, latency and failure ratio. This is the
// "compared to structured / unstructured peer-to-peer networks" framing of
// the paper's conclusions. The structured end is the hybrid itself at
// p_s = 0, a pure finger-routed ring; Gnutella is the unstructured end and
// Kademlia (XOR metric, k-buckets, α-parallel iterative lookup) the
// industry-standard comparator off the ring. A hybrid hop count includes the
// answer's leg back to the origin, so at p_s = 0 it is the ring forwards plus
// one. Each system is an independent simulation, so the arms run as
// worker-pool tasks: the baselines first, then the hybrid arms.
func RunBaselines(o Options) (*Result, error) {
	res := newResult("Baselines")
	keys := workload.Keys(o.Items / 2)
	if len(keys) == 0 {
		return nil, errNoKeys // runBaseline indexes keys without the scenario's check
	}
	queries := o.Lookups / 2

	hybridPs := []float64{0, 0.3, 0.7}
	arms, err := sweep(o, len(baselines)+len(hybridPs), func(i int) (baselineRow, error) {
		if i < len(baselines) {
			return runBaseline(o, baselines[i], keys, queries)
		}
		ps := hybridPs[i-len(baselines)]
		name, tag := fmt.Sprintf("hybrid p_s=%.1f", ps), fmt.Sprintf("hybrid_ps%.1f", ps)
		sc, err := buildScenario(o, expConfig(ps), o.Seed+820+int64(ps*100), nil, keys)
		if err != nil {
			return baselineRow{}, err
		}
		sc.Sys.Settle(baselineWarmup)
		rs, err := sc.lookups(queries, 4, keys, sc.anyLive, func(k int) int { return k })
		if err != nil {
			return baselineRow{}, err
		}
		sc.observe(o, "Baselines "+name)
		return baselineRow{
			name: name, tag: tag,
			hops: meanHops(rs), latency: meanLatencyMs(rs), failure: failureRatio(rs),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Baselines vs hybrid",
		"system", "mean hops", "mean latency ms", "failure ratio")
	for _, r := range arms {
		t.AddRow(r.name, r.hops, r.latency, r.failure)
		res.Values[r.tag+"_hops"] = r.hops
		if !r.noLatencyValue {
			res.Values[r.tag+"_latency_ms"] = r.latency
		}
		res.Values[r.tag+"_failure"] = r.failure
	}

	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"hybrid p_s=0.0 is the pure structured ring; a hybrid hop count includes the answer's leg back to the origin")
	return res, nil
}
