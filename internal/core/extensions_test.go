package core

import (
	"fmt"
	"testing"

	"repro/internal/idspace"
	"repro/internal/sim"
)

// --- Random-walk search ---------------------------------------------------------

func TestWalkFindsReplicatedItem(t *testing.T) {
	sys := newTestSystem(t, 80, func(c *Config) {
		c.Ps = 0.9
		c.RandomWalk = true
		c.WalkCount = 6
		c.WalkTTL = 48
		c.LookupTimeout = 10 * sim.Second
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 80}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	// Plant replicas across one big s-network so walkers likely cross one.
	sps := sys.SPeers()
	key := "walk-target"
	did := sps[0].segmentID(key)
	var owner *Peer
	for _, sp := range sps {
		if sp.inLocalSegment(did) {
			owner = sp
			break
		}
	}
	if owner == nil {
		t.Skip("no s-peer owns the key locally at this seed")
	}
	// Replicate the item on many members of that s-network.
	root := snetOf(sys, owner)
	count := 0
	for _, p := range sys.Peers() {
		if r := snetOf(sys, p); r != nil && r.Addr == root.Addr {
			p.storeLocal(Item{Key: key, Value: "v", DID: idHash(key)})
			count++
		}
	}
	if count < 3 {
		t.Skip("s-network too small for a walk test")
	}
	r, err := sys.LookupSync(owner, key)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		// owner itself holds it; local hit expected
		t.Fatal("walker/local lookup failed on an owned key")
	}
	// Now from a peer in the same s-network without the item.
	if sys.Stats().WalksSent == 0 {
		// Delete the item at one member and look up from there.
		var seeker *Peer
		for _, p := range sys.Peers() {
			if r := snetOf(sys, p); r != nil && r.Addr == root.Addr && p != owner {
				seeker = p
				break
			}
		}
		if seeker == nil {
			t.Skip("no second member")
		}
		delete(seeker.data, idHash(key))
		lr, err := sys.LookupSync(seeker, key)
		if err != nil {
			t.Fatal(err)
		}
		if !lr.OK {
			t.Fatal("walkers missed a fully replicated item")
		}
	}
	if sys.Stats().WalksSent == 0 {
		t.Fatal("no walkers were launched despite RandomWalk mode")
	}
}

func TestWalkContactsFewerPeersThanFlood(t *testing.T) {
	// On a large s-network, a k-walker search for a MISSING key contacts
	// at most k*WalkTTL peers while a deep flood touches everyone.
	build := func(walk bool) int {
		sys := newTestSystem(t, 81, func(c *Config) {
			c.Ps = 0.95
			c.RandomWalk = walk
			c.WalkCount = 1
			c.WalkTTL = 4
			c.TTL = 16
			c.LookupTimeout = 3 * sim.Second
		})
		if _, _, err := sys.BuildPopulation(PopulationOpts{N: 100}); err != nil {
			t.Fatal(err)
		}
		sys.Settle(6 * sys.Cfg.HelloEvery)
		// A key that is local to the origin removes ring-path noise from
		// the comparison.
		origin := sys.SPeers()[0]
		key := ""
		for i := 0; i < 10000; i++ {
			cand := fmt.Sprintf("missing-%05d", i)
			if origin.inLocalSegment(origin.segmentID(cand)) {
				key = cand
				break
			}
		}
		if key == "" {
			t.Skip("no local key found")
		}
		var contacts int
		done := false
		origin.Lookup(key, func(r OpResult) { done = true; contacts = r.Contacts })
		for !done {
			if !sys.Eng().Step() {
				t.Fatal("engine dry")
			}
		}
		return contacts
	}
	walkContacts := build(true)
	floodContacts := build(false)
	if walkContacts >= floodContacts {
		t.Fatalf("walk contacted %d peers, flood %d; walks must touch fewer", walkContacts, floodContacts)
	}
}

// --- Caching (future work) ------------------------------------------------------

func TestCachingSpreadsHotLoad(t *testing.T) {
	run := func(caching bool) (maxServes uint64, lastLatency sim.Time) {
		sys := newTestSystem(t, 82, func(c *Config) {
			c.Ps = 0.8
			c.Caching = caching
			c.CacheHotThreshold = 5
			c.CacheWindow = 1000 * sim.Second
			c.CacheTTL = 1000 * sim.Second
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
		c.CacheHotThreshold = 3
		c.CacheWindow = 1000 * sim.Second
		c.CacheTTL = 1000 * sim.Second
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

// --- Prefix search --------------------------------------------------------------

// plantLocalKey returns the next numbered key with the given format whose
// segment id falls inside m's own cached segment. Tests that plant items
// directly into a peer's data map must use locally-owned keys: the periodic
// rehome sweep (rehomeForeignItems) ships anything foreign to its owner
// segment, which would move planted items away mid-test.
func plantLocalKey(m *Peer, format string, n *int) string {
	for {
		key := fmt.Sprintf(format, *n)
		*n++
		if m.inLocalSegment(m.segmentID(key)) {
			return key
		}
	}
}

func TestSearchPrefixCollectsMatches(t *testing.T) {
	sys := newTestSystem(t, 85, func(c *Config) {
		c.Ps = 0.85
		c.TTL = 8
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 60}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	// Plant themed items directly inside one s-network so a local search
	// can see them all.
	origin := sys.SPeers()[0]
	root := snetOf(sys, origin)
	members := []*Peer{}
	for _, p := range sys.Peers() {
		if r := snetOf(sys, p); r != nil && r.Addr == root.Addr {
			members = append(members, p)
		}
	}
	want := 0
	kn := 0
	for _, m := range members {
		key := plantLocalKey(m, "music/track%03d.ogg", &kn)
		m.storeLocal(Item{Key: key, Value: "v", DID: idHash(key)})
		want++
		// Distractors must not match.
		other := plantLocalKey(m, "docs/file%03d", &kn)
		m.storeLocal(Item{Key: other, Value: "v", DID: idHash(other)})
	}
	res, err := sys.SearchSync(origin, "music/", 0, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != want {
		t.Fatalf("search found %d matches, want %d", len(res.Items), want)
	}
	for _, it := range res.Items {
		if len(it.Key) < 6 || it.Key[:6] != "music/" {
			t.Fatalf("non-matching result %q", it.Key)
		}
	}
	if res.Contacts == 0 && len(members) > 1 {
		t.Fatal("search contacted nobody")
	}
}

func TestSearchPrefixMaxResults(t *testing.T) {
	sys := newTestSystem(t, 86, func(c *Config) {
		c.Ps = 0.85
		c.TTL = 8
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 50}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	origin := sys.SPeers()[0]
	root := snetOf(sys, origin)
	n := 0
	kn := 0
	for _, p := range sys.Peers() {
		if r := snetOf(sys, p); r != nil && r.Addr == root.Addr {
			key := plantLocalKey(p, "pics/img%03d", &kn)
			p.storeLocal(Item{Key: key, Value: "v", DID: idHash(key)})
			n++
		}
	}
	if n < 3 {
		t.Skip("s-network too small")
	}
	res, err := sys.SearchSync(origin, "pics/", 2, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 2 {
		t.Fatalf("maxResults ignored: got %d", len(res.Items))
	}
}

func TestSearchInterestRouted(t *testing.T) {
	sys := newTestSystem(t, 87, func(c *Config) {
		c.Ps = 0.8
		c.InterestCategories = 3
		c.TTL = 10
	})
	tRole, sRole := TPeer, SPeer
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 9, ForceRole: &tRole}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(2 * sim.Second)
	interests := make([]int, 36)
	for i := range interests {
		interests[i] = i % 3
	}
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 36, Interests: interests, ForceRole: &sRole})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)

	// Publish into category 1 from a cat-1 peer.
	var pub, other *Peer
	for _, p := range peers {
		if p.Interest == 1 && pub == nil {
			pub = p
		}
		if p.Interest == 2 && other == nil {
			other = p
		}
	}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("cat01/song%02d", i)
		if _, err := sys.StoreSync(pub, key, "v"); err != nil {
			t.Fatal(err)
		}
	}
	// A peer from another community searches the cat01/ field of interest:
	// the query routes to the serving s-network (§5.3 partial search).
	res, err := sys.SearchSync(other, "cat01/", 0, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) < 5 {
		t.Fatalf("cross-community field search found %d/6 items", len(res.Items))
	}
}

// idHash is a test shorthand.
func idHash(key string) idspace.ID {
	return idspace.HashKey(key)
}
