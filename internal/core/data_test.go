package core

import (
	"fmt"
	"testing"

	"repro/internal/idspace"
	"repro/internal/sim"
)

// ownerOf returns the live t-peer owning an id, per the actual ring.
func ownerOf(sys *System, id idspace.ID) *Peer {
	for _, tp := range sys.TPeers() {
		if !tp.t.pred.Valid() {
			return tp
		}
		if idspace.Between(tp.t.pred.ID, id, tp.ID) {
			return tp
		}
	}
	return nil
}

// snetOf returns the root of the s-network a peer belongs to.
func snetOf(sys *System, p *Peer) *Peer {
	cur := p
	for cur != nil && cur.Role == SPeer {
		cur = sys.Peer(cur.cp.Addr)
	}
	return cur
}

func TestStoreLocalWhenSegmentMatches(t *testing.T) {
	sys := newTestSystem(t, 40, func(c *Config) { c.Ps = 0.5 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	// Find a (peer, key) pair where the key falls into the peer's own
	// segment; the store must complete with zero hops and stay local.
	for _, p := range sys.Peers() {
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("local-probe-%d", i)
			if p.inLocalSegment(idspace.HashKey(key)) {
				r, err := sys.StoreSync(p, key, "v")
				if err != nil || !r.OK {
					t.Fatalf("local store failed: %+v %v", r, err)
				}
				if r.Hops != 0 {
					t.Fatalf("local store took %d hops", r.Hops)
				}
				if !p.HasItem(key) {
					t.Fatal("local store left the peer")
				}
				return
			}
		}
	}
	t.Fatal("no local (peer, key) pair found")
}

func TestPlacementSchemeOneTargetsTPeer(t *testing.T) {
	sys := newTestSystem(t, 41, func(c *Config) {
		c.Ps = 0.7
		c.Placement = PlaceAtTPeer
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 60})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("s1-%03d", i)
		origin := peers[(i*7)%60]
		r, err := sys.StoreSync(origin, key, "v")
		if err != nil || !r.OK {
			t.Fatalf("store %s: %+v %v", key, r, err)
		}
		holder := sys.Peer(r.Holder.Addr)
		if holder == origin {
			continue // the key happened to be local
		}
		if holder.Role != TPeer {
			t.Fatalf("scheme 1 placed %s on an s-peer (%d)", key, holder.Addr)
		}
	}
}

func TestPlacementSchemeTwoSpreads(t *testing.T) {
	sys := newTestSystem(t, 42, func(c *Config) {
		c.Ps = 0.8
		c.Placement = PlaceSpread
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 80})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	sHolders := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("s2-%04d", i)
		r, err := sys.StoreSync(peers[(i*11)%80], key, "v")
		if err != nil || !r.OK {
			t.Fatalf("store %s: %+v %v", key, r, err)
		}
		if h := sys.Peer(r.Holder.Addr); h != nil && h.Role == SPeer {
			sHolders++
		}
	}
	if sHolders < 50 {
		t.Fatalf("scheme 2 placed only %d/300 items on s-peers", sHolders)
	}
}

func TestItemsLandInOwningSNetwork(t *testing.T) {
	// Property: wherever placement puts an item, the holder's s-network
	// root must be the ring owner of the item's d_id.
	sys := newTestSystem(t, 43, func(c *Config) { c.Ps = 0.7 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 60})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("seg-%04d", i)
		r, err := sys.StoreSync(peers[(i*13)%60], key, "v")
		if err != nil || !r.OK {
			t.Fatalf("store %s: %+v %v", key, r, err)
		}
		holder := sys.Peer(r.Holder.Addr)
		origin := peers[(i*13)%60]
		if holder == origin {
			continue // stored locally by the §3.4 local rule
		}
		root := snetOf(sys, holder)
		owner := ownerOf(sys, idspace.HashKey(key))
		if root == nil || owner == nil {
			t.Fatalf("key %s: root/owner missing", key)
		}
		if root.Addr != owner.Addr {
			t.Errorf("key %s landed in s-network %d, segment owner is %d", key, root.Addr, owner.Addr)
		}
	}
}

func TestLoadTransferOnJoin(t *testing.T) {
	// A new t-peer splits a segment: items in its half must move to it
	// (Table 1, suc.loadtransfer).
	sys := newTestSystem(t, 44, func(c *Config) {
		c.Ps = 0
		c.Placement = PlaceAtTPeer
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	// Fill the system with data.
	for i := 0; i < 300; i++ {
		if _, err := sys.StoreSync(peers[i%10], fmt.Sprintf("lt-%04d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.TotalItems()

	// Insert new t-peers and verify ownership remains exact.
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 10}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sim.Second)
	if got := sys.TotalItems(); got != before {
		t.Fatalf("items changed during load transfer: %d -> %d", before, got)
	}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("lt-%04d", i)
		did := idspace.HashKey(key)
		owner := ownerOf(sys, did)
		if owner == nil {
			t.Fatal("no owner")
		}
		if !owner.HasItem(key) {
			t.Errorf("item %s not at its owner after ring growth", key)
		}
	}
}

func TestStoreFromTPeerAndSPeer(t *testing.T) {
	sys := newTestSystem(t, 45, func(c *Config) { c.Ps = 0.5 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	tp := sys.TPeers()[0]
	sp := sys.SPeers()[0]
	for i, origin := range []*Peer{tp, sp} {
		r, err := sys.StoreSync(origin, fmt.Sprintf("origin-%d", i), "v")
		if err != nil || !r.OK {
			t.Fatalf("store from %v failed: %+v %v", origin.Role, r, err)
		}
	}
}

func TestStoreAckCarriesHops(t *testing.T) {
	sys := newTestSystem(t, 46, func(c *Config) { c.Ps = 0.5 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 40})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	sawRemote := false
	for i := 0; i < 40 && !sawRemote; i++ {
		r, err := sys.StoreSync(peers[i], fmt.Sprintf("hop-%d", i), "v")
		if err != nil || !r.OK {
			t.Fatal(err)
		}
		if r.Holder.Addr != peers[i].Addr {
			sawRemote = true
			if r.Hops < 1 {
				t.Fatalf("remote store reported %d hops", r.Hops)
			}
			if r.Latency <= 0 {
				t.Fatal("remote store reported zero latency")
			}
		}
	}
	if !sawRemote {
		t.Fatal("all 40 stores were local; suspicious")
	}
}

func TestTotalItemsAndPerPeer(t *testing.T) {
	sys := newTestSystem(t, 47, func(c *Config) { c.Ps = 0.5 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	for i := 0; i < 50; i++ {
		if _, err := sys.StoreSync(peers[i%20], fmt.Sprintf("tc-%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if sys.TotalItems() != 50 {
		t.Fatalf("TotalItems = %d", sys.TotalItems())
	}
	per := sys.ItemsPerPeer()
	sum := 0
	for _, c := range per {
		sum += c
	}
	if sum != 50 || len(per) != 20 {
		t.Fatalf("ItemsPerPeer sums to %d over %d peers", sum, len(per))
	}
}
