package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestStrategyEquivalence holds SuccessorWalk to what the Config bool it
// replaced (successor-only routing forked inside FingerWalk) returned for
// every (peer, target) pair of one built ring. testdata/succ_routing.golden
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
	tps := sys.TPeers()

	var b strings.Builder
	record := func(title string) {
		fmt.Fprintf(&b, "# %s\n", title)
		for _, p := range tps {
			next := SuccessorWalk{}.NextHop(p, p.ID)
			for _, target := range tps {
				if got := (SuccessorWalk{}).NextHop(p, target.ID); got != next {
					t.Errorf("%s: peer %d routes target %v via %d, others via %d", title, p.Addr, target.ID, got.Addr, next.Addr)
				}
			}
			fmt.Fprintf(&b, "%d: %d\n", p.Addr, next.Addr)
		}
	}
	record("healthy ring")
	detours := 0
	for _, p := range tps {
		p.markSuspect(p.succ.Addr)
		if next := (SuccessorWalk{}).NextHop(p, p.ID); next.Addr == p.succ2.Addr && next.Addr != p.succ.Addr {
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
		t.Errorf("SuccessorWalk diverged from the recorded successor-only hops:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}
