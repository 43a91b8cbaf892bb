package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestStrategyEquivalence holds RouteSuccessor to what the Config bool it
// once replaced (successor-only routing forked inside the finger walk)
// returned for every (peer, target) pair of one built ring. testdata/succ_routing.golden
// was recorded from that bool before it was deleted: the hop was the same for
// every target, so it holds one "peer: next hop" line per t-peer, first on a
// healthy ring and then with every peer suspecting its own successor (the
// succ2 detour).
func TestStrategyEquivalence(t *testing.T) {
	sys := newTestSystem(t, 17, func(c *Config) { c.Ps = 0.5 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sim.Second) // several stabilization rounds populate succ2
	sys.Cfg.Route = RouteSuccessor
	tps := sys.TPeers()

	var b strings.Builder
	record := func(title string) {
		fmt.Fprintf(&b, "# %s\n", title)
		for _, p := range tps {
			next := p.nextHop(p.t, p.ID)
			for _, target := range tps {
				if got := p.nextHop(p.t, target.ID); got != next {
					t.Errorf("%s: peer %d routes target %v via %d, others via %d", title, p.Addr, target.ID, got.Addr, next.Addr)
				}
			}
			fmt.Fprintf(&b, "%d: %d\n", p.Addr, next.Addr)
		}
	}
	record("healthy ring")
	detours := 0
	for _, p := range tps {
		p.markSuspect(p.t, p.t.succ.Addr)
		if next := p.nextHop(p.t, p.ID); next.Addr == p.t.succ2.Addr && next.Addr != p.t.succ.Addr {
			detours++
		}
	}
	if detours == 0 {
		t.Fatal("no peer took the succ2 detour; the suspected case is not covered")
	}
	record("every peer suspects its successor")

	want, err := os.ReadFile("testdata/succ_routing.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("RouteSuccessor diverged from the recorded successor-only hops:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestNextHopsAllocFree pins the α-probe candidate ranking at zero
// allocations: the caller's fixed-size buffer must stay on its stack.
func TestNextHopsAllocFree(t *testing.T) {
	sys := newTestSystem(t, 17, func(c *Config) { c.Ps = 0.5 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sim.Second)
	tps := sys.TPeers()
	p, target := tps[0], tps[len(tps)/2].ID
	var n int
	avg := testing.AllocsPerRun(100, func() {
		var buf [MaxLookupAlpha]Ref
		n = len(p.nextHops(p.t, target, 3, buf[:0]))
	})
	if n < 2 {
		t.Fatalf("ranked %d candidates toward the far side of the ring, want at least 2", n)
	}
	if avg != 0 {
		t.Fatalf("ranking %d hop candidates allocates %.1f allocs/op, want 0", n, avg)
	}
}

func TestParseRoute(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Route
	}{
		{"", RouteFinger}, {"finger", RouteFinger},
		{"succ", RouteSuccessor}, {"successor", RouteSuccessor},
	} {
		if got, err := ParseRoute(tc.name); err != nil || got != tc.want {
			t.Errorf("ParseRoute(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	_, err := ParseRoute("random")
	if err == nil || err.Error() != `core: unknown routing strategy "random" (want finger or succ)` {
		t.Errorf("ParseRoute(\"random\") error = %v", err)
	}
}
