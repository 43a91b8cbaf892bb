package core

import (
	"testing"

	"repro/internal/sim"
)

// --- Caching (future work) ------------------------------------------------------

func TestCachingSpreadsHotLoad(t *testing.T) {
	run := func(caching bool) (maxServes uint64, lastLatency sim.Time) {
		sys := newTestSystem(t, 82, func(c *Config) {
			c.Ps = 0.8
			c.Caching = caching
		})
		peers, _, err := sys.BuildPopulation(PopulationOpts{N: 60})
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(6 * sys.Cfg.HelloEvery)
		if _, err := sys.StoreSync(peers[0], "viral-video", "v"); err != nil {
			t.Fatal(err)
		}
		// Everyone hammers the same item.
		for round := 0; round < 3; round++ {
			for i, p := range peers {
				if p.HasItem("viral-video") {
					continue
				}
				r, err := sys.LookupSync(p, "viral-video")
				if err != nil {
					t.Fatal(err)
				}
				if r.OK {
					lastLatency = r.Latency
				}
				_ = i
			}
		}
		for _, p := range sys.Peers() {
			if p.ServeCount() > maxServes {
				maxServes = p.ServeCount()
			}
		}
		return maxServes, lastLatency
	}
	hotNoCache, _ := run(false)
	hotCache, _ := run(true)
	if hotCache >= hotNoCache {
		t.Fatalf("caching did not reduce the hottest peer's load: %d vs %d", hotCache, hotNoCache)
	}
}

func TestCachePushAndHitCounters(t *testing.T) {
	sys := newTestSystem(t, 83, func(c *Config) {
		c.Ps = 0.8
		c.Caching = true
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 50})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	if _, err := sys.StoreSync(peers[0], "hot-item", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := sys.LookupSync(peers[(i*7+1)%50], "hot-item"); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.CachePushes == 0 {
		t.Fatal("hot item never pushed to surrogates")
	}
	cached := 0
	for _, p := range sys.Peers() {
		cached += p.NumCached()
	}
	if cached == 0 {
		t.Fatal("no surrogate copies installed")
	}
	if st.CacheHits == 0 {
		t.Fatal("surrogate copies never served")
	}
}
