package core

import (
	"testing"

	"repro/internal/idspace"
	"repro/internal/sim"
)

// pathCacheConfig turns the PR-10 lookup-path cache on over the standard
// test population.
func pathCacheConfig(c *Config) {
	c.Ps = 0.6
	c.PathCache = true
	c.LookupTimeout = 5 * sim.Second
}

// totalHints sums the live path-cache hints across the population.
func totalHints(sys *System) int {
	n := 0
	for _, p := range sys.Peers() {
		n += p.NumHints()
	}
	return n
}

func TestPathCacheDepositAndUse(t *testing.T) {
	sys, peers, keys := populate(t, 60, 60, 80, pathCacheConfig)

	// First pass deposits hints at every origin whose key lives in a remote
	// segment; second pass from the same origins must consult them.
	for i, key := range keys {
		r, err := sys.LookupSync(peers[(i*13+5)%len(peers)], key)
		if err != nil || !r.OK {
			t.Fatalf("warm lookup %s: %+v %v", key, r, err)
		}
	}
	if totalHints(sys) == 0 {
		t.Fatal("no hints deposited by successful remote lookups")
	}
	for i, key := range keys {
		r, err := sys.LookupSync(peers[(i*13+5)%len(peers)], key)
		if err != nil || !r.OK {
			t.Fatalf("hinted lookup %s: %+v %v", key, r, err)
		}
	}
	st := sys.Stats()
	if st.PathHintUses == 0 {
		t.Fatal("repeat lookups never used a path-cache hint")
	}
}

func TestPathCacheOffDepositsNothing(t *testing.T) {
	sys, peers, keys := populate(t, 61, 50, 40, func(c *Config) { c.Ps = 0.6 })
	for i, key := range keys {
		r, err := sys.LookupSync(peers[(i*7+3)%len(peers)], key)
		if err != nil || !r.OK {
			t.Fatalf("lookup %s: %+v %v", key, r, err)
		}
	}
	if n := totalHints(sys); n != 0 {
		t.Fatalf("path cache off but %d hints deposited", n)
	}
	if st := sys.Stats(); st.PathHintUses != 0 || st.PathHintDrops != 0 {
		t.Fatalf("path cache off but stats moved: %+v", st)
	}
}

// TestPathCacheStaleHintBounces plants a hint at a live t-peer that does not
// hold the item: the hinted lookup must bounce (hintDrop), clear the planted
// hint, continue as a normal routed lookup, and still succeed.
func TestPathCacheStaleHintBounces(t *testing.T) {
	sys, peers, keys := populate(t, 62, 60, 40, pathCacheConfig)

	key := keys[0]
	did := idspace.HashKey(key)
	// Find a t-peer that does not own the key's segment and does not hold it.
	var wrong *Peer
	for _, tp := range sys.TPeers() {
		if !tp.inLocalSegment(did) {
			wrong = tp
			break
		}
	}
	if wrong == nil {
		t.Fatal("no off-segment t-peer found")
	}
	// Pick an origin that is not the wrong holder itself.
	origin := peers[1]
	if origin.Addr == wrong.Addr {
		origin = peers[2]
	}
	origin.addHint(did, Ref{ID: wrong.ID, Addr: wrong.Addr})

	r, err := sys.LookupSync(origin, key)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatal("stale hint turned into a lookup failure; it must cost a bounce, not the result")
	}
	st := sys.Stats()
	if st.PathHintDrops == 0 {
		t.Fatal("stale holder never bounced a hintDrop")
	}
	if h, ok := origin.hints.peek(did); ok && h.Addr == wrong.Addr {
		t.Fatal("bounced hint still cached at the origin")
	}
}

// TestPathCacheSuspectInvalidation: marking an address suspect must drop
// every hint naming it (dropHintsTo), and a hint to an address already
// suspected must be dropped on sight instead of used (pathHint).
func TestPathCacheSuspectInvalidation(t *testing.T) {
	sys, peers, keys := populate(t, 63, 60, 40, pathCacheConfig)
	origin := peers[0]
	tp := sys.TPeers()[0]
	if tp.Addr == origin.Addr {
		tp = sys.TPeers()[1]
	}
	ref := Ref{ID: tp.ID, Addr: tp.Addr}
	for _, key := range keys[:5] {
		origin.addHint(idspace.HashKey(key), ref)
	}
	if origin.NumHints() < 5 {
		t.Fatalf("planted 5 hints, have %d", origin.NumHints())
	}
	origin.markSuspect(tp.Addr)
	if n := origin.NumHints(); n != 0 {
		t.Fatalf("markSuspect left %d hints naming the suspect", n)
	}

	// Drop-on-sight: a hint that arrives after the suspicion is not used.
	did := idspace.HashKey(keys[6])
	origin.addHint(did, ref)
	if _, ok := origin.pathHint(did); ok {
		t.Fatal("pathHint served a hint naming a suspected-dead holder")
	}
	if origin.NumHints() != 0 {
		t.Fatal("suspect hint survived its own use attempt")
	}
}

// TestPathCacheCrashDropsHintOnTimeout: a hint to a silently-dead holder is
// dropped when the hinted lookup times out (opTimeout), so the stale route
// costs at most one timed-out operation, never a wedged cache.
func TestPathCacheCrashDropsHintOnTimeout(t *testing.T) {
	sys, peers, keys := populate(t, 67, 60, 40, func(c *Config) {
		pathCacheConfig(c)
		c.LookupTimeout = 3 * sim.Second
	})
	// Crash a t-peer and plant a hint at a far origin pointing at the corpse
	// before any failure detector there could know.
	tps := sys.TPeers()
	victim := tps[len(tps)-1]
	ref := Ref{ID: victim.ID, Addr: victim.Addr}
	victim.Crash()
	origin := peers[0]
	if origin.Addr == victim.Addr {
		origin = peers[1]
	}
	key := keys[0]
	did := idspace.HashKey(key)
	origin.addHint(did, ref)

	r, err := sys.LookupSync(origin, key)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := origin.hints.peek(did); ok && h.Addr == victim.Addr {
		t.Fatalf("hint to the dead holder survived the lookup (result %+v)", r)
	}
	// The hint is gone, so a retry routes normally and must find the item
	// (its owner segment is intact — only the hinted-at victim died).
	sys.Settle(8*sys.Cfg.HelloTimeout + 10*sys.Cfg.FingerRefreshEvery)
	r2, err := sys.LookupSync(origin, key)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.OK && idspace.Between(victim.pred.ID, did, victim.ID) {
		t.Skip("key was owned by the crashed victim; nothing to recover without replication")
	}
	if !r2.OK {
		t.Fatalf("retry after hint drop failed: %+v", r2)
	}
}

// TestPathCacheDeletedKeyDoesNotResurrect exercises the interplay with the
// surrogate cache (cache.go): a deleted item must stay gone even when path
// hints and surrogate copies both referenced it, because hints store routes,
// never values.
func TestPathCacheDeletedKeyDoesNotResurrect(t *testing.T) {
	sys, peers, keys := populate(t, 64, 60, 40, func(c *Config) {
		pathCacheConfig(c)
		c.Caching = true // surrogate copies on too
	})
	// Heat the keys so hints and surrogate copies exist.
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
	// Every operation completed, so the op tables must be empty again.
	for _, p := range sys.Peers() {
		if n := len(p.pending); n != 0 {
			t.Fatalf("peer %v left %d ops pending after α-parallel lookups", p.Addr, n)
		}
	}
}
