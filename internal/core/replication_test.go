package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/idspace"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// replConfig is the hardened DES timer set with replication enabled.
func replConfig(k int) func(*Config) {
	return func(c *Config) {
		c.Ps = 0.7
		hardenedConfig(c)
		c.ReplicationK = k
	}
}

// keyOwner finds the live t-peer whose segment covers the key (hash
// placement, the mode every test here runs in). Call under Do.
func keyOwner(sys *System, key string) *Peer {
	return ownerOf(sys, idspace.HashKey(key))
}

// TestReadRepair is the table-driven read-repair suite: with k >= 2 a lookup
// must keep succeeding after the owner of a key dies, served from a replica
// and repaired back onto the new owner.
func TestReadRepair(t *testing.T) {
	cases := []struct {
		name string
		k    int
		n    int
	}{
		{name: "owner-dead-replica-hit-k2", k: 2, n: 40},
		{name: "owner-dead-replica-hit-k3", k: 3, n: 40},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys := newTestSystem(t, 77, replConfig(tc.k))
			peers, _, err := sys.BuildPopulation(PopulationOpts{N: tc.n})
			if err != nil {
				t.Fatal(err)
			}
			sys.Settle(10 * sim.Second)

			keys := make([]string, 24)
			for i := range keys {
				keys[i] = keyf("repl-%03d", i)
				r, err := sys.StoreSync(peers[(i*7)%len(peers)], keys[i], "v")
				if err != nil || !r.OK {
					t.Fatalf("store %s: ok=%v err=%v", keys[i], r.OK, err)
				}
			}
			// Let replication rounds push every key to its successors.
			sys.Settle(4 * sys.Cfg.HelloEvery)
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("after store: %v", err)
			}

			// Kill the owner of the first key, wait only until suspicion has
			// set in, and demand the key is still readable.
			var owner *Peer
			sys.Runtime().Do(func() { owner = keyOwner(sys, keys[0]) })
			if owner == nil {
				t.Fatal("no owner for key")
			}
			sys.Runtime().Do(func() { owner.Crash() })
			sys.Settle(2 * sys.Cfg.HelloTimeout)

			origin := peers[3]
			sys.Runtime().Do(func() {
				if !origin.Alive() {
					origin = sys.Peers()[0]
				}
			})
			r, err := sys.LookupSync(origin, keys[0])
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK {
				t.Fatalf("lookup of %s failed after owner crash", keys[0])
			}

			// At quiescence the key must live on the new owner again and the
			// replica invariant must hold system-wide.
			sys.Settle(6 * sys.Cfg.HelloTimeout)
			var repaired bool
			sys.Runtime().Do(func() {
				if p := keyOwner(sys, keys[0]); p != nil {
					repaired = p.HasItem(keys[0])
				}
			})
			if !repaired {
				t.Fatalf("key %s not re-installed on its new owner", keys[0])
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("after repair: %v", err)
			}
			st := sys.Stats()
			if st.ReplicasPushed == 0 {
				t.Fatal("no replicas were ever pushed at k>1")
			}
			if st.ReplicaServes+st.ReadRepairs+st.ReplicaPromotions == 0 {
				t.Fatal("owner died but no replica ever served, repaired or promoted")
			}
		})
	}
}

// TestReplicationDegradesBelowK: with fewer live t-peers than k the invariant
// degrades to "every item on every live t-peer" (want = min(k, live)) via the
// wrap-around detection, and must not report a perpetual deficit.
func TestReplicationDegradesBelowK(t *testing.T) {
	tRole := TPeer
	sys := newTestSystem(t, 5, func(c *Config) {
		hardenedConfig(c)
		c.ReplicationK = 3
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 2, ForceRole: &tRole})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)

	for i := 0; i < 12; i++ {
		r, err := sys.StoreSync(peers[i%2], keyf("deg-%02d", i), "v")
		if err != nil || !r.OK {
			t.Fatalf("store %d: ok=%v err=%v", i, r.OK, err)
		}
	}
	sys.Settle(4 * sys.Cfg.HelloEvery)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("two t-peers, k=3: %v", err)
	}
	// With the ring shorter than the chain, both peers must hold every item.
	sys.Runtime().Do(func() {
		var h HealthScore
		h = sys.HealthScore()
		if h.ReplicaDeficit != 0 {
			t.Errorf("replica deficit %d reported in a fully wrapped ring", h.ReplicaDeficit)
		}
	})

	// A digest that wraps the two-peer ring clears the deficit like a wrapped
	// put does: anti-entropy keeps running without re-sending the set.
	base := sys.Stats()
	sys.Settle(2 * repPushEvery * sys.Cfg.HelloEvery)
	st := sys.Stats()
	if st.ReplicaDigests == base.ReplicaDigests {
		t.Error("no digest sent on a ring smaller than k")
	}
	if st.DigestMismatches != base.DigestMismatches || st.ReplicaFullPushes != base.ReplicaFullPushes {
		t.Errorf("wrapped digests read as a deficit: mismatches %d -> %d, full pushes %d -> %d",
			base.DigestMismatches, st.DigestMismatches, base.ReplicaFullPushes, st.ReplicaFullPushes)
	}
	if h := sys.HealthScore(); h.ReplicaDeficit != 0 {
		t.Errorf("replica deficit %d after wrapped digests", h.ReplicaDeficit)
	}

	// Down to one: the survivor owns the whole ring and must still answer.
	sys.Runtime().Do(func() { peers[0].Crash() })
	sys.Settle(6 * sys.Cfg.HelloTimeout)
	for i := 0; i < 12; i++ {
		r, err := sys.LookupSync(peers[1], keyf("deg-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK {
			t.Fatalf("lone survivor lost deg-%02d", i)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("lone survivor: %v", err)
	}
}

// TestRehomeSweepDedupes is the regression test for the double-send bug: an
// item present both in the local database and in the owned index (the normal
// state for an owner) that becomes foreign must be rehomed exactly once, not
// once per table.
func TestRehomeSweepDedupes(t *testing.T) {
	sys := newTestSystem(t, 11, replConfig(2))
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 30}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)

	sys.Runtime().Do(func() {
		tps := sys.TPeers()
		if len(tps) < 2 {
			t.Fatal("need at least two t-peers")
		}
		p := tps[0]
		// Find a key p does not own and plant it in both tables, the state a
		// segment handoff leaves behind.
		var it Item
		for i := 0; ; i++ {
			key := keyf("foreign-%04d", i)
			if !p.inLocalSegment(idspace.HashKey(key)) {
				it = Item{Key: key, Value: "v", DID: idspace.HashKey(key)}
				break
			}
		}
		p.storeLocal(it)
		p.ownedAdd(it)

		before := sys.stats.ItemsRehomed
		p.rehomeForeignItems()
		if got := sys.stats.ItemsRehomed - before; got != 1 {
			t.Fatalf("foreign item rehomed %d times, want exactly 1", got)
		}
		if p.data.has(it.DID) {
			t.Fatal("foreign item still in data after sweep")
		}
		if p.owned().has(it.DID) {
			t.Fatal("foreign item still in owned after sweep")
		}
	})
}

// TestDeleteDropsReplicas: a delete must remove the item from the owner, its
// replica chain and any s-peer holders, and a second delete of the same key
// must report that the key no longer existed.
func TestDeleteDropsReplicas(t *testing.T) {
	sys := newTestSystem(t, 23, replConfig(3))
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 36})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)

	key := "doomed-key"
	if r, err := sys.StoreSync(peers[2], key, "v"); err != nil || !r.OK {
		t.Fatalf("store: ok=%v err=%v", r.OK, err)
	}
	sys.Settle(4 * sys.Cfg.HelloEvery)

	r, err := sys.DeleteSync(peers[9], key)
	if err != nil || !r.OK {
		t.Fatalf("delete: ok=%v err=%v", r.OK, err)
	}
	if r.Value != "deleted" {
		t.Fatalf("first delete reported %q, want \"deleted\"", r.Value)
	}
	sys.Settle(4 * sys.Cfg.HelloEvery)

	if lr, err := sys.LookupSync(peers[4], key); err != nil || lr.OK {
		t.Fatalf("lookup after delete: ok=%v err=%v", lr.OK, err)
	}
	sys.Runtime().Do(func() {
		did := idspace.HashKey(key)
		for _, p := range sys.Peers() {
			if p.data.has(did) {
				t.Errorf("peer %d still stores deleted item", p.Addr)
			}
			if p.reps().has(did) {
				t.Errorf("peer %d still holds a replica of deleted item", p.Addr)
			}
		}
	})
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("after delete: %v", err)
	}

	r2, err := sys.DeleteSync(peers[9], key)
	if err != nil || !r2.OK {
		t.Fatalf("second delete: ok=%v err=%v", r2.OK, err)
	}
	if r2.Value != "" {
		t.Fatalf("second delete reported %q, want miss", r2.Value)
	}
}

// TestReplicationChurnStorm is the replication variant of the churn-storm
// crash test at N=400: epochs of concurrent joins, leaves and crashes over a
// lossy network, and after each epoch the full invariant suite — including
// the replica-coverage check — must hold, for each k in {1, 2, 3}.
func TestReplicationChurnStorm(t *testing.T) {
	epochs := 6
	if testing.Short() {
		epochs = 2
	}
	for _, k := range []int{1, 2, 3} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			sys := newTestSystem(t, 4242, replConfig(k))
			fc := simnet.FaultConfig{
				DropRate:  0.01,
				DupRate:   0.01,
				JitterMax: 10 * sim.Millisecond,
				Seed:      9100 + int64(k),
			}
			arm := func() { sys.Net().SetFaults(simnet.NewFaults(fc)) }
			arm()
			peers, _, err := sys.BuildPopulation(PopulationOpts{N: 400})
			if err != nil {
				t.Fatal(err)
			}
			sys.Settle(10 * sim.Second)
			// Seed the data set over a clean network: a dropped storeReq
			// times the operation out, and lost stores are not what this
			// test is about.
			sys.Net().SetFaults(nil)
			for i := 0; i < 100; i++ {
				key := keyf("storm-%03d", i)
				if r, err := sys.StoreSync(peers[(i*13)%len(peers)], key, "v"); err != nil || !r.OK {
					t.Fatalf("store %s: ok=%v err=%v", key, r.OK, err)
				}
			}
			sys.Settle(4 * sys.Cfg.HelloEvery)
			arm()
			stubs := sys.Topo().StubNodes()
			for epoch := 0; epoch < epochs; epoch++ {
				for i := 0; i < 9; i++ {
					at := sys.Eng().Now() + sim.Time(i)*300*sim.Millisecond
					switch i % 3 {
					case 0:
						host := stubs[sys.Eng().Rand().Intn(len(stubs))]
						sys.Eng().At(at, func() {
							sys.Join(JoinOpts{Host: host, Capacity: 1}, nil)
						})
					case 1:
						sys.Eng().At(at, func() {
							live := sys.Peers()
							if len(live) <= 5 {
								return
							}
							live[sys.Eng().Rand().Intn(len(live))].Leave()
						})
					default:
						sys.Eng().At(at, func() {
							live := sys.Peers()
							if len(live) <= 5 {
								return
							}
							live[sys.Eng().Rand().Intn(len(live))].Crash()
						})
					}
				}
				sys.Settle(4 * sys.Cfg.HelloTimeout)
				sys.Net().SetFaults(nil)
				sys.Settle(6 * sys.Cfg.HelloTimeout)
				if err := sys.CheckInvariants(); err != nil {
					t.Fatalf("k=%d epoch %d: %v", k, epoch, err)
				}
				arm()
			}
		})
	}
}

// TestReplicationLiveRuntime runs the k=2 crash/repair path on the live
// wall-clock runtime, which makes it the -race exercise for the replication
// and delete message handlers.
func TestReplicationLiveRuntime(t *testing.T) {
	rt := live.New(live.Config{Seed: 99, Delay: 200 * time.Microsecond, AwaitTimeout: 60 * time.Second})
	t.Cleanup(rt.Close)
	cfg := DefaultConfig()
	cfg.Ps = 0.6
	cfg.ReplicationK = 2
	cfg.HelloEvery = 100 * runtime.Millisecond
	cfg.HelloTimeout = 400 * runtime.Millisecond
	cfg.SuppressTimeout = 50 * runtime.Millisecond
	cfg.LookupTimeout = 2 * runtime.Second
	cfg.JoinTimeout = 5 * runtime.Second
	cfg.FingerRefreshEvery = 250 * runtime.Millisecond
	sys, err := NewSystem(rt, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 24})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * cfg.HelloEvery)

	keys := make([]string, 20)
	for i := range keys {
		keys[i] = keyf("live-%03d", i)
		r, err := sys.StoreSync(peers[(i*5)%len(peers)], keys[i], "v")
		if err != nil || !r.OK {
			t.Fatalf("store %s: ok=%v err=%v", keys[i], r.OK, err)
		}
	}
	sys.Settle(4 * cfg.HelloEvery)

	// Crash the owner of every fifth key in one wave — but never two
	// ring-adjacent peers: at k=2 the owner and its successor are the only
	// holders, so killing an adjacent pair simultaneously is genuine,
	// unavoidable data loss rather than a repair failure.
	rt.Do(func() {
		forbidden := map[runtime.Addr]bool{}
		for i := 0; i < len(keys); i += 5 {
			p := keyOwner(sys, keys[i])
			if p == nil || forbidden[p.Addr] || len(sys.Peers()) <= 6 {
				continue
			}
			forbidden[p.Addr] = true
			forbidden[p.t.succ.Addr] = true
			forbidden[p.t.pred.Addr] = true
			p.Crash()
		}
	})
	sys.Settle(3 * cfg.HelloTimeout)

	// Invariants converge under the live runtime rather than holding at the
	// first poll; bound the wait in wall-clock time.
	deadline := time.Now().Add(20 * time.Second)
	for {
		var ierr error
		rt.Do(func() { ierr = sys.CheckInvariants() })
		if ierr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("invariants never converged: %v", ierr)
		}
		rt.Sleep(100 * runtime.Millisecond)
	}

	ok := 0
	for _, key := range keys {
		origin := peers[7]
		rt.Do(func() {
			if !origin.Alive() {
				origin = sys.Peers()[0]
			}
		})
		r, err := sys.LookupSync(origin, key)
		if err != nil {
			t.Fatal(err)
		}
		if r.OK {
			ok++
		}
	}
	if ok != len(keys) {
		t.Fatalf("only %d/%d keys survived the crash wave at k=2", ok, len(keys))
	}
}

// --- incremental replication (delta / digest / full-on-edge) -----------------

// repTraffic tallies replication messages seen by a send tap.
type repTraffic struct {
	fullPuts  map[runtime.Addr]int // replicaPuts marked Full, by originating owner
	digests   int                  // owner-originated replicaDigests
	announced int                  // item copies carried by ownerAnnounces
	// wholeSets counts, by the t-peer addressed, ownerAnnounces that carried
	// the sender's whole in-segment set of two or more items.
	wholeSets map[runtime.Addr]int
	byType    map[string]int
}

// tapReplication installs a send tap that tallies replication traffic.
func tapReplication(sys *System) *repTraffic {
	tr := &repTraffic{
		fullPuts:  make(map[runtime.Addr]int),
		wholeSets: make(map[runtime.Addr]int),
		byType:    make(map[string]int),
	}
	sys.TapSends(func(from, to runtime.Addr, msg any) {
		tr.byType[fmt.Sprintf("%T", msg)]++
		switch m := msg.(type) {
		case replicaPut:
			if m.Full && from == m.Owner.Addr {
				tr.fullPuts[from]++
			}
		case replicaDigest:
			if from == m.Owner.Addr {
				tr.digests++
			}
		case ownerAnnounce:
			tr.announced += len(m.Items)
			inSeg := 0
			sp := sys.peerAt(from)
			for _, it := range sp.data.all() {
				if sp.inLocalSegment(it.DID) {
					inSeg++
				}
			}
			if inSeg >= 2 && len(m.Items) == inSeg {
				tr.wholeSets[to]++
			}
		}
	})
	return tr
}

// busiestOwner returns the live t-peer with the most s-peers below it that
// also has two distinct ring successors, i.e. a full k=3 chain. Call under Do.
func busiestOwner(t *testing.T, sys *System) *Peer {
	t.Helper()
	var best *Peer
	for _, tp := range sys.TPeers() {
		if tp.t.succ.Addr == tp.Addr || tp.t.succ2.Addr == tp.Addr || tp.t.succ2.Addr == tp.t.succ.Addr {
			continue
		}
		if best == nil || tp.subtreeSize() > best.subtreeSize() {
			best = tp
		}
	}
	if best == nil {
		t.Fatal("no t-peer with two distinct successors")
	}
	return best
}

// keysOwnedBy returns n fresh keys whose segment owner is the given t-peer.
func keysOwnedBy(sys *System, owner *Peer, prefix string, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		key := keyf("%s-%05d", prefix, i)
		if keyOwner(sys, key) == owner {
			keys = append(keys, key)
		}
	}
	return keys
}

// heldFor returns the replicas a peer holds on behalf of one owner, each
// with its effective refresh time as seen.
func heldFor(holder, owner *Peer) map[idspace.ID]repEntry {
	out := make(map[idspace.ID]repEntry)
	for _, e := range holder.reps().all() {
		if e.owner.Addr == owner.Addr {
			e.seen = holder.repl.seen(e)
			out[e.it.DID] = e
		}
	}
	return out
}

// storeVia stores keys from a given origin peer, failing the test on a miss.
func storeVia(t *testing.T, sys *System, origin *Peer, keys []string) {
	t.Helper()
	for _, key := range keys {
		if r, err := sys.StoreSync(origin, key, "v"); err != nil || !r.OK {
			t.Fatalf("store %s: ok=%v err=%v", key, r.OK, err)
		}
	}
}

// steadyChain builds a k=3 system, stores warm keys on one owner with a full
// chain — from its predecessor, so that spread placement scatters them over
// the owner's s-network — and lets replication settle. Returns the owner and
// its two holders.
func steadyChain(t *testing.T, seed int64, warm int) (*System, *repTraffic, *Peer, [2]*Peer) {
	t.Helper()
	sys := newTestSystem(t, seed, replConfig(3))
	tr := tapReplication(sys)
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)
	owner := busiestOwner(t, sys)
	storeVia(t, sys, sys.peerAt(owner.t.pred.Addr), keysOwnedBy(sys, owner, "warm", warm))
	sys.Settle(2 * repPushEvery * sys.Cfg.HelloEvery)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("after warm-up: %v", err)
	}
	holders := [2]*Peer{sys.peerAt(owner.t.succ.Addr), sys.peerAt(owner.t.succ2.Addr)}
	for _, h := range holders {
		if got := len(heldFor(h, owner)); got != owner.owned().len() {
			t.Fatalf("holder %d keeps %d of the owner's %d items after warm-up", h.Addr, got, owner.owned().len())
		}
	}
	return sys, tr, owner, holders
}

// TestReplicationSteadyWrites is the digest-starvation guard and the
// traffic-proportional-to-writes check: one store per tick, all on one owner,
// for longer than three replica lifetimes. The digest must ride behind every
// periodic delta (or the holders' copies age out and the rehome sweep
// re-stores them), and no path may re-send the stored set: item copies pushed
// and announced stay linear in the stores, with no full push after the
// owner's first.
func TestReplicationSteadyWrites(t *testing.T) {
	sys, tr, owner, holders := steadyChain(t, 31, 1)
	tick := sys.Cfg.HelloEvery
	base, baseFull, baseAnnounced := sys.Stats(), tr.fullPuts[owner.Addr], tr.announced
	stores := 3*int(owner.repExpiry()/tick) + 5
	origin := sys.peerAt(owner.t.pred.Addr)
	for i, key := range keysOwnedBy(sys, owner, "steady", stores) {
		storeVia(t, sys, origin, []string{key})
		sys.Settle(tick)
		now := sys.Eng().Now()
		for _, h := range holders {
			for did, e := range heldFor(h, owner) {
				if age := now - e.seen; age > (repPushEvery+1)*tick {
					t.Fatalf("tick %d: holder %d's replica %v not refreshed for %v", i, h.Addr, did, age)
				}
			}
		}
	}
	sys.Settle(2 * tick)
	st := sys.Stats()
	if got := st.ItemsRehomed - base.ItemsRehomed; got != 0 {
		t.Errorf("%d items rehomed under steady writes, want 0", got)
	}
	if got := st.ReplicasPushed - base.ReplicasPushed; got > uint64(3*stores) {
		t.Errorf("%d replica copies pushed for %d stores, want <= %d", got, stores, 3*stores)
	}
	if got := tr.announced - baseAnnounced; got > 3*stores {
		t.Errorf("%d item copies announced for %d stores, want <= %d", got, stores, 3*stores)
	}
	if got := tr.fullPuts[owner.Addr] - baseFull; got != 0 {
		t.Errorf("%d full pushes with quiet membership, want 0", got)
	}
	if got := st.ReplicaFullPushes - base.ReplicaFullPushes; got != 0 {
		t.Errorf("ReplicaFullPushes rose by %d with quiet membership", got)
	}
	if st.DigestMismatches != base.DigestMismatches {
		t.Errorf("digest mismatches %d -> %d with nothing diverging", base.DigestMismatches, st.DigestMismatches)
	}
	if st.ReplicaDigests == base.ReplicaDigests || tr.digests == 0 {
		t.Error("no digest went out under sustained writes")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationDeltaLossFullPush: a delta replicaPut lost on the wire draws
// no acks, which the next tick reads as a deficit and answers with the full
// set.
func TestReplicationDeltaLossFullPush(t *testing.T) {
	sys, tr, owner, holders := steadyChain(t, 32, 3)
	tick := sys.Cfg.HelloEvery
	faults := simnet.NewFaults(simnet.FaultConfig{Seed: 1})
	faults.SetLink(owner.Addr, holders[0].Addr, simnet.LinkFaults{DropRate: 1})
	sys.Net().SetFaults(faults)
	storeVia(t, sys, owner, keysOwnedBy(sys, owner, "lost", 1))
	sys.Settle(tick) // the eager push and the tick's delta both die on the link
	sys.Net().SetFaults(nil)
	if err := sys.check("replica_holders"); err == nil {
		t.Fatal("replication invariant holds although every push of the new item was dropped")
	}
	baseFull := tr.fullPuts[owner.Addr]
	sys.Settle(tick)
	if got := tr.fullPuts[owner.Addr] - baseFull; got != 1 {
		t.Fatalf("%d full pushes on the tick after a lost delta, want 1", got)
	}
	sys.Settle(tick)
	if err := sys.check("replica_holders"); err != nil {
		t.Fatalf("not repaired two ticks after the loss: %v", err)
	}
	if owner.repl.deficit != 0 {
		t.Fatalf("deficit %d after the repair", owner.repl.deficit)
	}
	sys.Settle(2 * repPushEvery * tick)
	if got := tr.fullPuts[owner.Addr] - baseFull; got != 1 {
		t.Fatalf("full pushes kept coming after the repair: %d", got)
	}
}

// TestReplicationDigestRepairs: a holder that lost an entry, or keeps one the
// owner no longer names, fails the digest; the owner's full push repairs it
// (the stale extra is forwarded home, not kept), the next digest matches and
// full pushes stop.
func TestReplicationDigestRepairs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		diverge func(sys *System, owner, holder *Peer) idspace.ID
		rehomed uint64
	}{
		{name: "missing", diverge: func(_ *System, owner, holder *Peer) idspace.ID {
			for did := range heldFor(holder, owner) {
				holder.repDel(did)
				return did
			}
			return 0
		}},
		{name: "stale-extra", rehomed: 1, diverge: func(sys *System, owner, holder *Peer) idspace.ID {
			for i := 0; ; i++ {
				key := keyf("stale-%04d", i)
				if o := keyOwner(sys, key); o != owner && o != holder {
					it := Item{Key: key, Value: "v", DID: idspace.HashKey(key)}
					holder.repPut(repEntry{it: it, owner: owner.Ref(), seen: sys.Eng().Now()})
					return it.DID
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, tr, owner, holders := steadyChain(t, 33, 6)
			tick := sys.Cfg.HelloEvery
			base, baseFull := sys.Stats(), tr.fullPuts[owner.Addr]
			did := tc.diverge(sys, owner, holders[1])
			sys.Settle(2 * repPushEvery * tick)
			st := sys.Stats()
			if got := st.DigestMismatches - base.DigestMismatches; got != 1 {
				t.Fatalf("%d digest mismatches, want 1", got)
			}
			if got := tr.fullPuts[owner.Addr] - baseFull; got != 1 {
				t.Fatalf("%d full pushes to repair one divergence, want 1", got)
			}
			if got := st.ItemsRehomed - base.ItemsRehomed; got != tc.rehomed {
				t.Fatalf("%d items rehomed, want %d", got, tc.rehomed)
			}
			held := heldFor(holders[1], owner)
			if _, ok := held[did]; ok != (tc.rehomed == 0) {
				t.Fatalf("diverged entry %v present=%v after the repair", did, ok)
			}
			if len(held) != owner.owned().len() {
				t.Fatalf("holder keeps %d of the owner's %d items", len(held), owner.owned().len())
			}
			// Matching again: digests keep going out, nothing else does.
			digests := st.ReplicaDigests
			sys.Settle(2 * repPushEvery * tick)
			st = sys.Stats()
			if st.ReplicaDigests == digests {
				t.Fatal("no digest after the repair")
			}
			if got := st.DigestMismatches - base.DigestMismatches; got != 1 {
				t.Fatalf("digest still mismatching after the repair (%d rounds)", got)
			}
			if got := tr.fullPuts[owner.Addr] - baseFull; got != 1 {
				t.Fatalf("full pushes kept coming after the repair: %d", got)
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplicationTakeover: under spread placement a t-peer crash changes two
// edges at once. Its predecessor gets a new successor, which must receive the
// predecessor's full set, and the promoted s-peer becomes the owner of items
// whose bytes sit on its former siblings, which it learns from their full
// re-announce.
func TestReplicationTakeover(t *testing.T) {
	sys, tr, victim, _ := steadyChain(t, 34, 12)
	tick := sys.Cfg.HelloEvery
	if len(victim.children) == 0 {
		t.Fatal("victim has no s-peers to promote")
	}
	pred := sys.peerAt(victim.t.pred.Addr)
	storeVia(t, sys, pred, keysOwnedBy(sys, pred, "pred", 4))
	sys.Settle(2 * tick)
	victim.Crash()
	sys.Settle(2*sys.Cfg.HelloTimeout + 4*tick)

	heir := sys.peerAt(pred.t.succ.Addr)
	if heir == nil || heir == victim || heir.ID != victim.ID {
		t.Fatalf("no s-peer was promoted into the crashed t-peer's position")
	}
	for _, it := range pred.owned().all() {
		if did := it.DID; !heir.reps().has(did) {
			t.Errorf("new successor lacks replica %v of its predecessor's set", did)
		}
	}
	covered := 0
	for _, sp := range sys.SPeers() {
		if sp.tpeer.Addr != heir.Addr {
			continue
		}
		for _, it := range sp.data.all() {
			if sp.inLocalSegment(it.DID) {
				covered++
				if !heir.owned().has(it.DID) {
					t.Errorf("promoted owner does not cover item %v stored on s-peer %d", it.DID, sp.Addr)
				}
			}
		}
	}
	if covered == 0 {
		t.Fatal("no spread item sits below the promoted owner; the test proves nothing")
	}
	// Replicas forwarded home by the dead owner's chain would get the heir
	// there as well, item by item; the s-peers re-sending their sets is what
	// must have run.
	if tr.wholeSets[heir.Addr] == 0 {
		t.Error("no s-peer re-announced its whole in-segment set to the promoted owner")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationOffSendsNothing: k = 1 stays inert — no replication message
// of any kind and no replication state on any peer.
func TestReplicationOffSendsNothing(t *testing.T) {
	sys := newTestSystem(t, 35, func(c *Config) {
		c.Ps = 0.7
		hardenedConfig(c)
	})
	tr := tapReplication(sys)
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 40})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)
	for i := 0; i < 20; i++ {
		if r, err := sys.StoreSync(peers[(i*7)%len(peers)], keyf("inert-%02d", i), "v"); err != nil || !r.OK {
			t.Fatalf("store %d: ok=%v err=%v", i, r.OK, err)
		}
	}
	sys.Settle(2 * repPushEvery * sys.Cfg.HelloEvery)
	for _, typ := range []string{"core.replicaPut", "core.replicaDigest", "core.replicaAck", "core.ownerAnnounce"} {
		if n := tr.byType[typ]; n != 0 {
			t.Errorf("%d %s sent at k=1", n, typ)
		}
	}
	if tr.byType["core.helloMsg"] == 0 {
		t.Fatal("the tap saw no traffic at all")
	}
	for _, p := range sys.Peers() {
		if p.repl != nil {
			t.Errorf("peer %d allocated replication state at k=1", p.Addr)
		}
	}
}
