package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Allocation guards for the two hot paths the memory work pinned down: the
// event engine's schedule/dispatch cycle and a full no-churn lookup. The
// guards use testing.AllocsPerRun so a regression fails `go test ./...`
// outright instead of waiting for someone to compare benchmark output.

// TestEventEngineAllocFree pins the engine hot path at zero allocations per
// event: after warm-up every Event comes from the engine's free list, and
// the radix heap links events through their own fields, so a steady-state
// schedule/dispatch cycle touches no allocator at all.
func TestEventEngineAllocFree(t *testing.T) {
	eng := sim.New(1)
	tick := func() {}
	// Warm-up: grow the event pool past anything the measured loop needs.
	for i := 0; i < 1024; i++ {
		eng.After(sim.Time(i%100+1), tick)
	}
	eng.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			eng.After(sim.Time(i%100+1), tick)
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("event engine hot path allocates: %.2f allocs per 64-event cycle, want 0", avg)
	}
}

// TestTimerRearmAllocFree pins the timer path at zero allocations: re-arming
// a runtime.Timer (a cancel and a schedule on the engine), cancelling handles
// from a burst of short events, and a RunUntil that stops short of the next
// pending event, as the idle tables' timers (internal/core/idle.go) see it
// on every use of a cached copy or bypass link. No HELLO re-arms a timer:
// a watchdog is a deadline checked on the hello tick.
func TestTimerRearmAllocFree(t *testing.T) {
	eng := sim.New(1)
	fired := 0
	timers := make([]*runtime.Timer, 64)
	for i := range timers {
		timers[i] = runtime.NewTimer(eng, sim.Time(i+1)*sim.Second, func() { fired++ })
	}
	tick := func() {}
	var hs [16]sim.Handle
	cycle := func() {
		for _, tm := range timers {
			tm.Start()
		}
		for i := range hs {
			hs[i] = eng.After(sim.Time(i)*sim.Millisecond, tick)
		}
		for i := 0; i < len(hs); i += 2 {
			eng.Cancel(hs[i])
		}
		// Stops 900 ms before the earliest timer.
		eng.RunUntil(eng.Now() + 100*sim.Millisecond)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(100, cycle)
	if avg != 0 {
		t.Fatalf("timer re-arm path allocates: %.2f allocs per cycle, want 0", avg)
	}
	if fired != 0 || eng.Pending() != len(timers) {
		t.Fatalf("fired=%d pending=%d: a re-armed timer fired or leaked", fired, eng.Pending())
	}
}

// TestLatencyAllocFree pins Graph.Latency, paid by every simulated message,
// at zero allocations per call over the three kinds of pair its table
// answers: two stubs of one domain, stubs of two domains, a transit node and
// a stub.
func TestLatencyAllocFree(t *testing.T) {
	g, err := topology.GenerateTransitStub(topology.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	stubs, transit := g.StubNodes(), g.TransitNodes()
	a := stubs[0]
	var same, other int
	for _, s := range stubs[1:] {
		if g.Nodes[s].Domain == g.Nodes[a].Domain {
			same = s
		} else {
			other = s
		}
	}
	pairs := [][2]int{{a, same}, {a, other}, {transit[0], a}, {other, transit[len(transit)-1]}}
	for _, p := range pairs {
		if _, err := g.Latency(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		for _, p := range pairs {
			g.Latency(p[0], p[1])
		}
	})
	if avg != 0 {
		t.Fatalf("Latency allocates: %.2f allocs per %d calls, want 0", avg, len(pairs))
	}
}

// TestLookupAllocBudget pins the allocation cost of one no-churn lookup on a
// settled system. The test reads 73 allocs per lookup (82 before the printf
// trace hook stopped boxing its arguments on every operation); the budget is
// about twice that, headroom for run-to-run variation in routing distance.
// It exists to catch a per-message or per-event allocation sneaking back into
// the path, not single allocations.
func TestLookupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full system")
	}
	sys, peers := benchSystem(t, 100, func(c *core.Config) { c.Ps = 0.7 })
	const keys = 64
	for i := 0; i < keys; i++ {
		if _, err := sys.StoreSync(peers[i%len(peers)], fmt.Sprintf("ak-%04d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		if _, err := sys.LookupSync(peers[(i*13)%len(peers)], fmt.Sprintf("ak-%04d", i%keys)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const budget = 150
	if avg > budget {
		t.Fatalf("lookup allocates %.1f allocs/op, budget %d", avg, budget)
	}
	t.Logf("lookup allocs/op: %.1f (budget %d)", avg, budget)
}

// benchSystem builds a settled n-peer system on the topology the lookup
// budget is measured on; mut adjusts the default configuration.
func benchSystem(t *testing.T, n int, mut func(*core.Config)) (*core.System, []*core.Peer) {
	t.Helper()
	tc := topology.Config{
		TransitDomains: 2, TransitNodesPerDomain: 2,
		StubDomainsPerTransit: 2, StubNodesPerDomain: 12,
		ExtraTransitEdges: 2, ExtraStubEdges: 2,
		TransitScale: 10, BaseLatency: 500, LatencyPerUnit: 20000,
	}
	topo, err := topology.GenerateTransitStub(tc, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(7)
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	cfg := core.DefaultConfig()
	mut(&cfg)
	sys, err := core.NewSystem(simnet.NewRuntime(eng, net), cfg, topo.StubNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	peers, _, err := sys.BuildPopulation(core.PopulationOpts{N: n})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	return sys, peers
}

// TestFingerRefreshLocalAllocFree pins an all-local finger refresh at zero
// allocations: a lone t-peer (succ == self) answers all 64 finger starts
// itself, so a full eight-tick refresh cycle boxes no message and arms no
// round timeout — the only events are the finger ticker's own re-arms (the
// hello period is pushed past the measured window: a heartbeat boxes its
// message and reports to the server every tick).
func TestFingerRefreshLocalAllocFree(t *testing.T) {
	sys, _ := benchSystem(t, 1, func(c *core.Config) {
		c.HelloEvery, c.HelloTimeout = 3600*sim.Second, 7200*sim.Second
	})
	cycle := 8 * sys.Cfg.FingerRefreshEvery
	sys.Settle(cycle)
	avg := testing.AllocsPerRun(10, func() { sys.Settle(cycle) })
	if avg != 0 {
		t.Fatalf("all-local finger refresh allocates: %.2f allocs per 8-tick cycle, want 0", avg)
	}
}
