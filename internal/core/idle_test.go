package core

import (
	"fmt"
	"testing"

	"repro/internal/idspace"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// idleSystem builds a settled system with every idle-expiring feature on and
// picks a leaf s-peer (spare degree, so rule 1 admits a bypass link) plus an
// s-peer of another s-network for it to point at.
func idleSystem(t *testing.T, seed int64) (sys *System, p, other *Peer) {
	t.Helper()
	sys = newTestSystem(t, seed, func(c *Config) {
		c.Ps = 0.7
		c.Bypass = true
		c.Caching = true
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	for _, sp := range sys.SPeers() {
		if p == nil && sp.Degree() == 1 {
			p = sp
		} else if p != nil && sp.tpeer.Addr != p.tpeer.Addr {
			other = sp
			break
		}
	}
	if p == nil || other == nil {
		t.Fatal("no leaf s-peer with a foreign counterpart at this seed")
	}
	return sys, p, other
}

// TestIdleTables drives the two idleTable users — surrogate cache and bypass
// links — through their protocol entry points and holds each to the same
// contract: a use restarts the idle clock, an unused entry disappears exactly
// one TTL after its last use, and a crashed peer keeps no timer armed (so
// nothing fires on it afterwards).
func TestIdleTables(t *testing.T) {
	did := idspace.HashKey("idle-item")
	tables := []struct {
		name string
		ttl  func(*System) runtime.Time
		put  func(p, other *Peer)
		use  func(p, other *Peer) bool
		n    func(p *Peer) int
	}{
		{
			name: "cache",
			ttl:  func(*System) runtime.Time { return cacheTTL },
			put:  func(p, _ *Peer) { p.handleCacheAdd(cacheAdd{Item: Item{Key: "idle-item", Value: "v", DID: did}}) },
			use:  func(p, _ *Peer) bool { _, ok := p.lookupCached(did); return ok },
			n:    (*Peer).NumCached,
		},
		{
			name: "bypass",
			ttl:  func(*System) runtime.Time { return bypassTTL },
			put:  func(p, other *Peer) { p.handleBypassAdd(bypassAdd{Peer: other.Ref(), SegLo: other.segLo}) },
			use:  func(p, other *Peer) bool { _, ok := p.bypassFor(other.ID); return ok },
			n:    func(p *Peer) int { return p.numBypass() },
		},
	}
	for i, tb := range tables {
		t.Run(tb.name, func(t *testing.T) {
			sys, p, other := idleSystem(t, 90+int64(i))
			eng, ttl := sys.Eng(), tb.ttl(sys)
			expect := func(want int, when string) {
				t.Helper()
				if got := tb.n(p); got != want {
					t.Fatalf("%s: %d entries, want %d", when, got, want)
				}
			}

			t0 := eng.Now()
			tb.put(p, other)
			expect(1, "after put")
			eng.RunUntil(t0 + ttl/2)
			if !tb.use(p, other) {
				t.Fatal("entry not served half a TTL after put")
			}
			used := eng.Now()
			eng.RunUntil(t0 + ttl)
			expect(1, "one TTL after put, half a TTL after the last use")
			eng.RunUntil(used + ttl - 1)
			expect(1, "one tick short of a TTL after the last use")
			eng.RunUntil(used + ttl)
			expect(0, "one TTL after the last use")

			tb.put(p, other)
			p.Crash()
			if n := p.armedTimers(); n != 0 {
				t.Fatalf("crashed peer still has %d timers scheduled", n)
			}
			eng.RunUntil(eng.Now() + ttl + sim.Second)
			expect(1, "on the dead peer, where no expiry may fire")
		})
	}
}

// TestDeleteDropsCachedCopy: a delete must remove the surrogate copy of the
// item, and only that one, and disarm its timer.
func TestDeleteDropsCachedCopy(t *testing.T) {
	_, p, other := idleSystem(t, 93)
	it := Item{Key: "idle-item", Value: "v", DID: idspace.HashKey("idle-item")}
	keep := Item{Key: "other-item", Value: "v", DID: idspace.HashKey("other-item")}
	p.handleCacheAdd(cacheAdd{Item: it})
	p.handleCacheAdd(cacheAdd{Item: keep})
	armed := p.armedTimers()

	p.handleDeleteFlood(other.Addr, deleteFlood{DID: it.DID, TTL: 1})
	if p.NumCached() != 1 {
		t.Fatalf("after delete: %d cached copies, want the unrelated one", p.NumCached())
	}
	if _, ok := p.enh.cache.peek(keep.DID); !ok {
		t.Fatal("delete dropped the copy of another item")
	}
	if got := p.armedTimers(); got != armed-1 {
		t.Fatalf("%d timers armed after delete, want %d", got, armed-1)
	}
}

// TestCrashedBypassEndpointKeepsNoTimers creates bypass links through real
// cross-s-network traffic with caching on as well, then crashes an endpoint:
// none of its timers may stay scheduled.
func TestCrashedBypassEndpointKeepsNoTimers(t *testing.T) {
	sys, origin, _ := idleSystem(t, 66)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("bp-%03d", i)
		if _, err := sys.StoreSync(origin, key, "v"); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.LookupSync(origin, key); err != nil {
			t.Fatal(err)
		}
	}
	links := origin.numBypass()
	if links == 0 {
		t.Fatal("no bypass links created despite cross-s-network traffic")
	}
	origin.Crash()
	if n := origin.armedTimers(); n != 0 {
		t.Fatalf("crashed peer still has %d timers scheduled", n)
	}
	sys.Settle(bypassTTL + sim.Second)
	if got := origin.numBypass(); got != links {
		t.Fatalf("an expiry fired on the dead peer: %d bypass links, had %d", got, links)
	}
}
