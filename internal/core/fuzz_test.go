package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestProtocolFuzz drives randomized interleavings of every external
// operation — joins, graceful leaves, abrupt crashes, stores, lookups,
// settles — across many seeds and configurations, then verifies the global
// invariants:
//
//  1. the t-network ring is a single consistent cycle,
//  2. every s-network is a well-formed tree rooted at a live t-peer,
//  3. every key whose entire store-to-now holder chain stayed alive is
//     still retrievable,
//  4. no operation wedges the engine.
//
// This is the adversarial complement to the scenario tests: it explores
// interleavings nobody thought to write down.
func TestProtocolFuzz(t *testing.T) {
	seeds := []int64{101, 202, 303, 404}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fuzzOnce(t, seed)
		})
	}
}

func fuzzOnce(t *testing.T, seed int64) {
	t.Helper()
	script := rand.New(rand.NewSource(seed))
	cfg := func(c *Config) {
		c.Ps = []float64{0.3, 0.6, 0.8}[script.Intn(3)]
		c.Delta = script.Intn(3) + 2
		c.TTL = script.Intn(5) + 3
		c.Placement = Placement(script.Intn(2))
		c.Bypass = script.Intn(2) == 0
		c.Caching = script.Intn(2) == 0
		c.LookupTimeout = 4 * sim.Second
	}
	sys := newTestSystem(t, seed, cfg)
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 60}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)

	stubs := sys.Topo().StubNodes()
	stored := 0
	type inflight struct {
		origin *Peer
		done   bool
	}
	var lookups []*inflight
	const ops = 400
	for i := 0; i < ops; i++ {
		live := sys.Peers()
		if len(live) < 6 {
			break
		}
		p := live[script.Intn(len(live))]
		switch script.Intn(10) {
		case 0: // join
			sys.Join(JoinOpts{Host: stubs[script.Intn(len(stubs))], Capacity: 1}, nil)
		case 1: // graceful leave
			p.Leave()
		case 2: // crash
			p.Crash()
		case 3, 4, 5: // store
			key := fmt.Sprintf("fz-%04d", stored)
			stored++
			p.Store(key, "v", nil)
		case 6, 7, 8: // lookup (outcome checked statistically below)
			if stored > 0 {
				fl := &inflight{origin: p}
				lookups = append(lookups, fl)
				p.Lookup(fmt.Sprintf("fz-%04d", script.Intn(stored)), func(OpResult) { fl.done = true })
			}
		}
		// Let a random slice of simulated time pass between operations; a
		// draw of 9 issues no operation, only this step.
		sys.Settle(sim.Time(script.Intn(2000)+1) * sim.Millisecond)
	}

	// Quiesce: deliver everything, let failure detection and stabilization
	// finish, then check the invariants.
	sys.Settle(120 * sim.Second)
	for _, fl := range lookups {
		// A lookup may only vanish with its issuer: a crashed or departed
		// peer takes its in-flight client operations with it.
		if !fl.done && fl.origin.Alive() {
			t.Fatalf("lookup by live peer %d never resolved", fl.origin.Addr)
		}
	}
	if err := sys.CheckRing(); err != nil {
		t.Fatalf("ring invariant: %v", err)
	}
	if err := sys.CheckTrees(); err != nil {
		t.Fatalf("tree invariant: %v", err)
	}
	auditAgrees(t, sys)

	// The system must still serve new work end to end.
	live := sys.Peers()
	if len(live) < 2 {
		t.Skip("population died out")
	}
	r, err := sys.StoreSync(live[0], "fz-final", "v")
	if err != nil || !r.OK {
		t.Fatalf("post-fuzz store: %+v %v", r, err)
	}
	lr, err := sys.LookupSync(live[len(live)/2], "fz-final")
	if err != nil || !lr.OK {
		t.Fatalf("post-fuzz lookup: %+v %v", lr, err)
	}
}

// TestFuzzTrackerMode runs a shorter fuzz with tracker s-networks, whose
// index maintenance has its own failure modes.
func TestFuzzTrackerMode(t *testing.T) {
	script := rand.New(rand.NewSource(777))
	sys := newTestSystem(t, 777, func(c *Config) {
		c.Ps = 0.7
		c.TrackerMode = true
		c.LookupTimeout = 4 * sim.Second
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 50}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	stubs := sys.Topo().StubNodes()
	stored := 0
	for i := 0; i < 200; i++ {
		live := sys.Peers()
		if len(live) < 6 {
			break
		}
		p := live[script.Intn(len(live))]
		switch script.Intn(8) {
		case 0:
			sys.Join(JoinOpts{Host: stubs[script.Intn(len(stubs))], Capacity: 1}, nil)
		case 1:
			p.Leave()
		case 2:
			p.Crash()
		default:
			key := fmt.Sprintf("tk-%04d", stored)
			stored++
			p.Store(key, "v", nil)
		}
		sys.Settle(sim.Time(script.Intn(1500)+1) * sim.Millisecond)
	}
	sys.Settle(120 * sim.Second)
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckTrees(); err != nil {
		t.Fatal(err)
	}
}
