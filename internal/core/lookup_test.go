package core

import (
	"fmt"
	"testing"

	"repro/internal/idspace"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// populate builds a system and stores n items from deterministic origins.
func populate(t *testing.T, seed int64, nPeers, nItems int, mut func(*Config)) (*System, []*Peer, []string) {
	t.Helper()
	sys := newTestSystem(t, seed, mut)
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: nPeers})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	keys := make([]string, nItems)
	for i := range keys {
		keys[i] = fmt.Sprintf("item-%05d", i)
		r, err := sys.StoreSync(peers[(i*7)%nPeers], keys[i], "value-"+keys[i])
		if err != nil || !r.OK {
			t.Fatalf("store %s: %+v %v", keys[i], r, err)
		}
	}
	return sys, peers, keys
}

func TestLookupFindsEverythingWithAmpleTTL(t *testing.T) {
	sys, peers, keys := populate(t, 50, 60, 120, func(c *Config) { c.Ps = 0.6 })
	for i, key := range keys {
		r, err := sys.LookupSync(peers[(i*13+5)%60], key)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			t.Errorf("lookup %s failed", key)
			continue
		}
		if r.Value != "value-"+key {
			t.Errorf("lookup %s returned %q", key, r.Value)
		}
	}
}

func TestLookupMissingKeyFails(t *testing.T) {
	sys, peers, _ := populate(t, 51, 40, 10, func(c *Config) {
		c.Ps = 0.5
		c.LookupTimeout = 3 * sim.Second
	})
	r, err := sys.LookupSync(peers[0], "no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	if r.OK {
		t.Fatal("missing key found")
	}
}

func TestLocalHitIsInstant(t *testing.T) {
	sys, peers, keys := populate(t, 52, 30, 30, func(c *Config) { c.Ps = 0.5 })
	// Find a key held by its own storer.
	for i, key := range keys {
		origin := peers[(i*7)%30]
		if origin.HasItem(key) {
			r, err := sys.LookupSync(origin, key)
			if err != nil || !r.OK {
				t.Fatalf("self lookup: %+v %v", r, err)
			}
			if r.Hops != 0 || r.Contacts != 0 {
				t.Fatalf("self lookup hops=%d contacts=%d", r.Hops, r.Contacts)
			}
			return
		}
	}
	t.Skip("no self-held key at this seed")
}

func TestSmallTTLCausesFailures(t *testing.T) {
	// Deep trees (δ=2) + TTL 1 must miss distant items inside large
	// s-networks — the Fig. 5a mechanism.
	sys, peers, keys := populate(t, 53, 80, 200, func(c *Config) {
		c.Ps = 0.9
		c.Delta = 2
		c.LookupTimeout = 3 * sim.Second
	})
	fails1, fails8 := 0, 0
	for i, key := range keys {
		origin := peers[(i*17+3)%80]
		r1, err := func() (OpResult, error) {
			var res OpResult
			var done bool
			origin.LookupWithTTL(key, 1, func(rr OpResult) { done = true; res = rr })
			for !done {
				if !sys.Eng().Step() {
					t.Fatal("engine dry")
				}
			}
			return res, nil
		}()
		if err != nil {
			t.Fatal(err)
		}
		if !r1.OK {
			fails1++
		}
		var r8 OpResult
		done := false
		origin.LookupWithTTL(key, 8, func(rr OpResult) { done = true; r8 = rr })
		for !done {
			if !sys.Eng().Step() {
				t.Fatal("engine dry")
			}
		}
		if !r8.OK {
			fails8++
		}
	}
	if fails1 == 0 {
		t.Fatal("TTL=1 found everything in deep trees — flood radius not enforced")
	}
	if fails8 >= fails1 {
		t.Fatalf("larger TTL did not reduce failures: ttl1=%d ttl8=%d", fails1, fails8)
	}
}

func TestContactsCounted(t *testing.T) {
	sys, peers, keys := populate(t, 55, 60, 100, func(c *Config) { c.Ps = 0.7 })
	totalContacts := 0
	remote := 0
	for i, key := range keys {
		origin := peers[(i*19+7)%60]
		r, err := sys.LookupSync(origin, key)
		if err != nil {
			t.Fatal(err)
		}
		if r.OK && r.Holder.Addr != origin.Addr {
			remote++
			if r.Contacts == 0 {
				t.Errorf("remote lookup %s contacted nobody", key)
			}
		}
		totalContacts += r.Contacts
	}
	if remote == 0 {
		t.Fatal("no remote lookups happened")
	}
	if totalContacts == 0 {
		t.Fatal("connum accounting is dead")
	}
}

// TestForeignQIDIsNotCounted: each process of a cluster numbers its qids
// from 1, so a query issued in another process can carry the qid of a local
// op. A contact made for that query must not be charged to the local op;
// one made for the op itself still is.
func TestForeignQIDIsNotCounted(t *testing.T) {
	sys := settled60(t)
	peers := sys.Peers()
	a, b, foreign := peers[0], peers[1], peers[2]
	run := func(origin Ref) int {
		var got *OpResult
		_, qid := a.newOp("lookup", "collide", func(r OpResult) { got = &r })
		b.handleFlood(foreign.Addr, floodReq{QID: qid, DID: idspace.HashKey("absent"), Origin: origin, TTL: 1, Hops: 1})
		a.finishOp(qid, OpResult{})
		if got == nil {
			t.Fatal("op did not finish")
		}
		return got.Contacts
	}
	if n := run(foreign.Ref()); n != 0 {
		t.Fatalf("a foreign query's contact was charged to the local op: Contacts = %d", n)
	}
	if n := run(a.Ref()); n != 1 {
		t.Fatalf("the op's own contact: Contacts = %d, want 1", n)
	}
}

func TestFloodExactlyOnce(t *testing.T) {
	// The paper's tree argument: "a tree structure guarantees that each
	// peer receives the query message exactly once." Count floodReq
	// receipts per peer for a full-radius flood of one s-network.
	sys := newTestSystem(t, 56, func(c *Config) {
		c.Ps = 0.85
		c.Delta = 3
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 80}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)

	receipts := make(map[simnet.Addr]int)
	for _, p := range sys.Peers() {
		p := p
		host, cap := p.Host, p.Capacity
		inner := p
		sys.Net().Attach(p.Addr, runtime.Endpoint{Host: host, Capacity: cap}, simnet.HandlerFunc(func(from simnet.Addr, msg any) {
			if _, ok := msg.(floodReq); ok {
				receipts[inner.Addr]++
			}
			inner.recv(from, msg)
		}))
	}
	// One deep flood from an s-peer for a key that misses (no early stop).
	origin := sys.SPeers()[0]
	done := false
	origin.LookupWithTTL("definitely-missing", 64, func(OpResult) { done = true })
	for !done {
		if !sys.Eng().Step() {
			t.Fatal("engine dry")
		}
	}
	for addr, n := range receipts {
		if n > 1 {
			t.Fatalf("peer %d received the flood %d times (tree must deliver exactly once)", addr, n)
		}
	}
	if len(receipts) == 0 {
		t.Fatal("flood reached nobody")
	}
}

func TestLookupAfterRingGrowth(t *testing.T) {
	// Items keep being findable while the ring grows underneath them.
	sys, peers, keys := populate(t, 57, 30, 60, func(c *Config) { c.Ps = 0.3 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 30}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sim.Second)
	fails := 0
	for i, key := range keys {
		r, err := sys.LookupSync(peers[(i*3)%30], key)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			fails++
		}
	}
	if fails > 2 {
		t.Fatalf("%d/60 lookups failed after ring growth", fails)
	}
}

func TestLookupLatencyPositiveAndBounded(t *testing.T) {
	sys, peers, keys := populate(t, 58, 50, 50, func(c *Config) { c.Ps = 0.6 })
	for i, key := range keys {
		origin := peers[(i*23+11)%50]
		r, err := sys.LookupSync(origin, key)
		if err != nil || !r.OK {
			continue
		}
		if r.Holder.Addr != origin.Addr && r.Latency <= 0 {
			t.Fatalf("remote lookup %s latency %v", key, r.Latency)
		}
		if r.Latency >= sys.Cfg.LookupTimeout {
			t.Fatalf("successful lookup %s slower than the timeout", key)
		}
	}
}

// TestRingLookupHopsCountTheAnswer pins the hop convention at p_s = 0, where
// the hybrid is a pure finger-routed ring: a remote lookup's Hops is its ring
// forwards plus one for the answer's leg back to the origin, and the forwards
// stay within a loose O(log N) band (log2(120) ≈ 6.9). A missing key fails.
func TestRingLookupHopsCountTheAnswer(t *testing.T) {
	const n = 120
	sys, peers, keys := populate(t, 23, n, 100, func(c *Config) { c.Ps = 0 })
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	forwards, remote := 0, 0
	for i, key := range keys {
		tr := obs.NewTracer(0)
		sys.SetTracer(tr)
		r, err := sys.LookupSync(peers[(i*31)%n], key)
		if err != nil || !r.OK {
			t.Fatalf("lookup %s: %+v %v", key, r, err)
		}
		fw := 0 // each ring forward is one lookup_hop event at its receiver
		for _, e := range tr.Events() {
			if e.Kind == obs.EvLookupHop {
				fw++
			}
		}
		if r.Hops == 0 { // the origin holds the item
			if fw != 0 {
				t.Fatalf("local hit %s traced %d ring forwards", key, fw)
			}
			continue
		}
		if r.Hops != fw+1 {
			t.Errorf("lookup %s: Hops = %d, ring forwards = %d, want forwards + 1", key, r.Hops, fw)
		}
		if r.Latency <= 0 {
			t.Errorf("remote lookup %s latency %v", key, r.Latency)
		}
		forwards += fw
		remote++
	}
	sys.SetTracer(nil)
	if remote < len(keys)*9/10 {
		t.Fatalf("only %d of %d lookups were remote", remote, len(keys))
	}
	if mean := float64(forwards) / float64(remote); mean > 14 {
		t.Fatalf("mean ring forwards %.1f too high for finger routing in a %d-peer ring", mean, n)
	}
	if r, err := sys.LookupSync(peers[0], "no-such-key"); err != nil || r.OK {
		t.Fatalf("missing key: %+v %v", r, err)
	}
}

// TestDeletedKeyDoesNotResurrect: a deleted item must stay gone even after
// warm lookups left surrogate copies of it in other s-networks (cache.go).
func TestDeletedKeyDoesNotResurrect(t *testing.T) {
	sys, peers, keys := populate(t, 64, 60, 40, func(c *Config) {
		c.Ps = 0.6
		c.Caching = true
		c.LookupTimeout = 5 * sim.Second
	})
	// Heat the keys so surrogate copies exist.
	for round := 0; round < 3; round++ {
		for i, key := range keys {
			r, err := sys.LookupSync(peers[(i*13+5)%len(peers)], key)
			if err != nil || !r.OK {
				t.Fatalf("warm lookup %s: %+v %v", key, r, err)
			}
		}
	}
	for _, key := range keys {
		r, err := sys.DeleteSync(peers[0], key)
		if err != nil || !r.OK {
			t.Fatalf("delete %s: %+v %v", key, r, err)
		}
	}
	for i, key := range keys {
		r, err := sys.LookupSync(peers[(i*13+5)%len(peers)], key)
		if err != nil {
			t.Fatal(err)
		}
		if r.OK {
			t.Fatalf("deleted key %s resurrected with value %q", key, r.Value)
		}
	}
}

// TestAlphaProbesUnderLookups: α=3 on a healthy system must stay correct
// (first success wins, late replies cancelled) and account its extra probes.
func TestAlphaProbesUnderLookups(t *testing.T) {
	sys, peers, keys := populate(t, 66, 60, 60, func(c *Config) {
		c.Ps = 0.6
		c.LookupAlpha = 3
		c.LookupTimeout = 5 * sim.Second
	})
	for i, key := range keys {
		r, err := sys.LookupSync(peers[(i*13+5)%len(peers)], key)
		if err != nil || !r.OK {
			t.Fatalf("α=3 lookup %s: %+v %v", key, r, err)
		}
	}
	if st := sys.Stats(); st.ProbesSent == 0 {
		t.Fatal("α=3 sent no extra probes")
	}
	// Every operation completed, so the op table must be empty again.
	if n := len(sys.ops); n != 0 {
		t.Fatalf("%d ops left pending after α-parallel lookups", n)
	}
}
