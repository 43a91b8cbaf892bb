// Hotspot: the paper's future-work caching scheme under a flash crowd. One
// item goes viral — every peer wants it — and without caching its holder
// answers nearly every request. With caching, hot items spill over to
// surrogate peers and the load flattens. The example also shows the prefix
// search extension finding themed content.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func main() {
	fmt.Println("flash crowd on one item, 300 peers, p_s = 0.8:")
	noCache := flashCrowd(false)
	withCache := flashCrowd(true)

	fmt.Printf("\n%-14s %-18s %-18s %s\n", "mode", "hottest peer", "top-5 peers", "mean latency")
	fmt.Printf("%-14s %-18s %-18s %.0f ms\n", "no caching",
		fmt.Sprintf("%d serves", noCache.max), fmt.Sprintf("%d serves", noCache.top5), noCache.ms)
	fmt.Printf("%-14s %-18s %-18s %.0f ms\n", "caching",
		fmt.Sprintf("%d serves", withCache.max), fmt.Sprintf("%d serves", withCache.top5), withCache.ms)
	fmt.Println("\nthe paper's future-work goal: 'distribute the load among as many peers")
	fmt.Println("as possible so that no peer is overwhelmed' — surrogate copies do exactly that.")
}

type crowdOutcome struct {
	max  uint64
	top5 uint64
	ms   float64
}

func flashCrowd(caching bool) crowdOutcome {
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), 11)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.New(11)
	net := simnet.New(eng, topo, simnet.DefaultConfig())

	cfg := core.DefaultConfig()
	cfg.Ps = 0.8
	cfg.Caching = caching
	cfg.CacheHotThreshold = 6
	cfg.CacheWindow = 120 * sim.Second
	cfg.CacheTTL = 600 * sim.Second
	cfg.LookupTimeout = 5 * sim.Second
	sys, err := core.NewSystem(simnet.NewRuntime(eng, net), cfg, topo.StubNodes()[0])
	if err != nil {
		log.Fatal(err)
	}
	peers, _, err := sys.BuildPopulation(core.PopulationOpts{N: 300})
	if err != nil {
		log.Fatal(err)
	}
	sys.Settle(10 * sim.Second)

	// Some background content plus the item about to go viral.
	for i := 0; i < 200; i++ {
		if _, err := sys.StoreSync(peers[(i*17)%300], fmt.Sprintf("videos/clip%04d.mkv", i), "…"); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := sys.StoreSync(peers[0], "videos/the-one-everyone-wants.mkv", "…"); err != nil {
		log.Fatal(err)
	}

	// The flash crowd: three waves of everyone fetching the viral item.
	var totalMs float64
	okCount := 0
	for wave := 0; wave < 3; wave++ {
		for _, p := range peers {
			if p.HasItem("videos/the-one-everyone-wants.mkv") {
				continue
			}
			r, err := sys.LookupSync(p, "videos/the-one-everyone-wants.mkv")
			if err != nil {
				log.Fatal(err)
			}
			if r.OK {
				totalMs += float64(r.Latency) / float64(sim.Millisecond)
				okCount++
			}
		}
	}

	// Who carried the load?
	var serves []uint64
	for _, p := range sys.Peers() {
		serves = append(serves, p.ServeCount())
	}
	sort.Slice(serves, func(i, j int) bool { return serves[i] > serves[j] })
	out := crowdOutcome{max: serves[0], ms: totalMs / float64(okCount)}
	for i := 0; i < 5 && i < len(serves); i++ {
		out.top5 += serves[i]
	}

	// Bonus: the prefix-search extension sees the whole catalog category.
	if caching {
		res, err := sys.SearchSync(peers[42], "videos/", 8, 5*sim.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  (prefix search \"videos/\" from one peer found %d items in its s-network)\n", len(res.Items))
	}
	return out
}
