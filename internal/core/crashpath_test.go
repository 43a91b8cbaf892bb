package core

import (
	"testing"

	"repro/internal/idspace"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// hardenedConfig tightens the maintenance cadence the way the experiment
// harness does, so crash tests settle in bounded simulated time.
func hardenedConfig(c *Config) {
	c.HelloEvery = 5 * sim.Second
	c.HelloTimeout = 12 * sim.Second
	c.FingerRefreshEvery = 5 * sim.Second
	c.LookupTimeout = 5 * sim.Second
	c.JoinTimeout = 40 * sim.Second
}

// TestParallelFloodSurvivesRingMiss is the regression test for the
// parallel-flood fast-fail race: lookupRemote floods the local s-network in
// parallel with ring routing, so a definitive miss from the ring must not
// fail the operation while the flood can still answer. Before the fix
// handleNotFound finished the op immediately and a later local hit was
// dropped on the floor.
func TestParallelFloodSurvivesRingMiss(t *testing.T) {
	sys := newTestSystem(t, 7, func(c *Config) {
		c.Ps = 0.7
		hardenedConfig(c)
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)

	var p *Peer
	for _, sp := range sys.SPeers() {
		if len(sp.neighbors()) > 0 {
			p = sp
			break
		}
	}
	if p == nil {
		t.Fatal("no s-peer with neighbors")
	}

	// Drive the race directly through the handlers: start a remote lookup
	// (which also floods locally), then deliver the ring's miss before any
	// flood answer.
	var got *OpResult
	o, qid := p.newOp("lookup", "race-key", func(r OpResult) { got = &r })
	p.lookupRemote(o, qid)
	if !o.localFlood {
		t.Fatal("lookupRemote did not start a parallel local flood")
	}
	p.handleNotFound(notFoundMsg{QID: qid, Hops: 3})
	if got != nil {
		t.Fatalf("ring miss failed the op while the local flood was outstanding: %+v", *got)
	}
	if _, ok := sys.ops[qid]; !ok {
		t.Fatal("op no longer pending after ring miss")
	}
	// A duplicated miss (dup faults) must also be harmless.
	p.handleNotFound(notFoundMsg{QID: qid, Hops: 3})
	// The flood answers late: the op must still conclude successfully.
	p.handleFound(foundMsg{
		QID:    qid,
		Item:   Item{Key: "race-key", Value: "v", DID: o.did},
		Holder: p.Ref(),
		Hops:   2,
	})
	if got == nil || !got.OK {
		t.Fatalf("late flood hit did not complete the op: %+v", got)
	}
}

// TestCascadedChildCrashAccounting crashes an s-peer together with its
// child: only the parent's own parent sees a crash (the child's parent is
// dead), and the grandchildren rejoin. The subtree reports must still leave
// the server's size of the s-network exact.
func TestCascadedChildCrashAccounting(t *testing.T) {
	sys := newTestSystem(t, 11, func(c *Config) {
		c.Ps = 0.8
		hardenedConfig(c)
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 60}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)

	// Find an s-peer that has a child: crashing both loses two peers, of
	// which only one is seen to crash.
	var parent, child *Peer
	for _, sp := range sys.SPeers() {
		if len(sp.children) > 0 {
			parent = sp
			child = sys.Peer(sp.children[0].Ref.Addr)
			break
		}
	}
	if parent == nil || child == nil {
		t.Fatal("no s-peer parent/child pair found")
	}
	parent.Crash()
	child.Crash()

	// Let detection, the subtree's rejoin and its reports run.
	sys.Settle(6 * sys.Cfg.HelloTimeout)

	if err := sys.check("server_accounting"); err != nil {
		t.Fatalf("server accounting did not reconcile after cascaded crash: %v", err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestLookupDetoursSuspectedSuccessor is the regression test for asymmetric
// dead-pointer handling: a t-peer keeps its crashed successor pointer while
// the repair is pending (repair messages match on the stale value), but data
// routing must stop forwarding into the crash and detour via the successor's
// successor learned from stabilization.
func TestLookupDetoursSuspectedSuccessor(t *testing.T) {
	sys := newTestSystem(t, 17, func(c *Config) {
		c.Ps = 0.5
		c.Route = RouteSuccessor // force the lookup through the succ pointer
		c.Placement = PlaceAtTPeer
		hardenedConfig(c)
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sim.Second) // several stabilization rounds populate succ2

	// Pick a crash victim T with a non-empty s-network (so the server waits
	// for its s-peers to drive replacement before force-patching the ring,
	// which keeps the repair window open) and its ring neighbors P and S.
	sv := sys.Server()
	var pre, victim, succ *Peer
	for _, tp := range sys.TPeers() {
		if sv.snetSize(tp.Addr) == 0 {
			continue
		}
		p2 := sys.Peer(tp.t.succ.Addr)
		p0 := sys.Peer(tp.t.pred.Addr)
		if p0 == nil || p2 == nil || p0.Addr == tp.Addr || p2.Addr == tp.Addr || p0.Addr == p2.Addr {
			continue
		}
		if p0.t.succ2.Addr == p2.Addr { // stabilization has published S to P
			pre, victim, succ = p0, tp, p2
			break
		}
	}
	if victim == nil {
		t.Fatal("no suitable P -> T -> S ring triple found")
	}

	// Store a key owned by S (its segment is (T.ID, S.ID]).
	key := ""
	for i := 0; i < 100000; i++ {
		cand := keyf("detour-%05d", i)
		if idspace.Between(victim.ID, idspace.HashKey(cand), succ.ID) {
			key = cand
			break
		}
	}
	if key == "" {
		t.Fatal("no key hashing into S's segment")
	}
	if r, err := sys.StoreSync(succ, key, "v"); err != nil || !r.OK {
		t.Fatalf("store: %v %+v", err, r)
	}

	// Crash T together with its entire s-network so no s-peer competes to
	// replace it and the ring stays broken for the full arbitration window.
	for _, sp := range sys.SPeers() {
		if sp.tpeer.Addr == victim.Addr {
			sp.Crash()
		}
	}
	victim.Crash()

	// Settle past failure detection but inside the repair window: P has
	// marked T suspect and still has succ == T.
	sys.Settle(2 * sys.Cfg.HelloTimeout)
	if !pre.Alive() || !succ.Alive() {
		t.Fatal("test ring neighbors died during settling")
	}
	if !pre.t.suspected(victim.Addr) || pre.t.succ.Addr != victim.Addr {
		t.Fatalf("setup drifted: P must still point at the suspected-dead T here (succ=%d suspect=%v)",
			pre.t.succ.Addr, pre.t.suspect)
	}
	r, err := sys.LookupSync(pre, key)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("lookup through suspected successor failed; succ2=%d suspect=%v",
			pre.t.succ2.Addr, pre.t.suspect)
	}

	// After full recovery everything must be consistent again.
	sys.Settle(6 * sys.Cfg.HelloTimeout)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// TestRecoveryPathsUnderFaults drives the three crash-recovery protocols the
// issue names — the join triangle, t-peer replace arbitration, and subtree
// rejoin — under message drop, duplication and jitter, and checks every
// system invariant at quiescence.
func TestRecoveryPathsUnderFaults(t *testing.T) {
	faultRows := []struct {
		name string
		fc   simnet.FaultConfig
	}{
		{"drop", simnet.FaultConfig{DropRate: 0.05, Seed: 1001}},
		{"dup", simnet.FaultConfig{DupRate: 0.2, Seed: 1002}},
		{"jitter", simnet.FaultConfig{JitterMax: 50 * sim.Millisecond, Seed: 1003}},
		{"combined", simnet.FaultConfig{DropRate: 0.02, DupRate: 0.1, JitterMax: 20 * sim.Millisecond, Seed: 1004}},
	}
	scenarios := []struct {
		name string
		ps   float64
		run  func(t *testing.T, sys *System)
	}{
		{
			// Joins exercise both triangle insertion (t-peers) and tree
			// descent (s-peers); with faults on, retries must finish them.
			name: "join-triangle",
			ps:   0.3,
			run:  func(t *testing.T, sys *System) {},
		},
		{
			// Crash a t-peer that has an s-network: the s-peers compete via
			// replaceReq and the winner is promoted into the ring.
			name: "replace-arbitration",
			ps:   0.7,
			run: func(t *testing.T, sys *System) {
				sv := sys.Server()
				for _, tp := range sys.TPeers() {
					if sv.snetSize(tp.Addr) > 0 {
						tp.Crash()
						return
					}
				}
				t.Fatal("no t-peer with an s-network")
			},
		},
		{
			// Crash an interior s-peer: its children's subtrees must rejoin
			// through the t-peer.
			name: "subtree-rejoin",
			ps:   0.85,
			run: func(t *testing.T, sys *System) {
				for _, sp := range sys.SPeers() {
					if len(sp.children) > 0 {
						sp.Crash()
						return
					}
				}
				t.Fatal("no interior s-peer")
			},
		},
	}
	for _, sc := range scenarios {
		for _, row := range faultRows {
			t.Run(sc.name+"/"+row.name, func(t *testing.T) {
				sys := newTestSystem(t, 23, func(c *Config) {
					c.Ps = sc.ps
					hardenedConfig(c)
				})
				sys.Net().SetFaults(simnet.NewFaults(row.fc))
				if _, _, err := sys.BuildPopulation(PopulationOpts{N: 50}); err != nil {
					t.Fatal(err)
				}
				sys.Settle(10 * sim.Second)
				sc.run(t, sys)
				sys.Settle(8 * sys.Cfg.HelloTimeout)
				// Under sustained loss, consecutive dropped HELLOs keep
				// producing false crash detections, so some edge is always
				// mid-repair; a point-in-time check would race the healing.
				// The invariant contract is convergence: once delivery is
				// restored, every repair must complete and the system must
				// reach a fully consistent fixpoint.
				sys.Net().SetFaults(nil)
				sys.Settle(6 * sys.Cfg.HelloTimeout)
				if err := sys.CheckInvariants(); err != nil {
					t.Fatalf("invariants under %s faults: %v", row.name, err)
				}
			})
		}
	}
}
