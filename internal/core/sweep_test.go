package core

import (
	"fmt"
	"testing"

	"repro/internal/idspace"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// missedByTick runs, right after one of p's hello ticks, the full scans that
// the tick may have skipped, and returns what they would still find: a
// foreign data or owned item, a replica to promote or to forward home, an
// in-segment item missing from owned. A tick leaves none of these behind
// whether it scanned or skipped, so anything found is a skip that was wrong.
// It also recounts the running sums and checks the expiry bound.
func missedByTick(p *Peer) []string {
	if !p.joined || p.leaving || p.Role != TPeer && !p.cp.Valid() {
		return nil // the tick ran no sweep
	}
	var out []string
	miss := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, it := range p.data.all() {
		if did := it.DID; !p.inLocalSegment(did) {
			miss("foreign data item %v", did)
		}
	}
	r := p.repl
	if r == nil {
		return out
	}
	for _, it := range r.owned.all() {
		if did := it.DID; !p.inLocalSegment(did) {
			miss("foreign owned item %v", did)
		}
	}
	now, expiry := p.sys.rt.Now(), p.repExpiry()
	for _, e := range r.reps.all() {
		did, seen := e.it.DID, r.seen(e)
		switch {
		case p.Role == TPeer && p.inLocalSegment(did):
			miss("replica %v to promote", did)
		case now-seen >= expiry:
			miss("replica %v expired", did)
		case p.t.suspected(e.owner.Addr):
			miss("replica %v of suspected owner %d", did, e.owner.Addr)
		}
		if h := r.hold(e.owner.Addr); h == nil || seen < h.oldest {
			miss("replica %v refreshed at %v, before its owner's bound", did, seen)
		}
	}
	if p.Role == TPeer {
		for _, it := range p.data.all() {
			if cur, ok := r.owned.get(it.DID); p.inLocalSegment(it.DID) && (!ok || cur != it) {
				miss("in-segment item %v not folded into owned", it.DID)
			}
		}
	}
	p.recountReplication(func(owner runtime.Addr, format string, args ...any) {
		miss("owner %d: "+format, append([]any{owner}, args...)...)
	})
	return out
}

// TestSkippedScansMatchFullScan is the differential test of a quiet tick's
// O(1) bookkeeping: over many seeds of k ∈ {2, 3} churn — crashes, joins
// and leaves on a network that drops and duplicates messages, under both
// placement schemes — every hello tick of every peer is followed by the
// full scans it replaces (missedByTick), which must find nothing. Each
// epoch also stores two stray items outside the storing peer's segment, as
// a stale view of the segment would, and raises two false suspicions of a
// replica owner, held until the epoch ends, so that replicas keep arriving
// from an owner the holder already suspects.
func TestSkippedScansMatchFullScan(t *testing.T) {
	seeds, epochs := 12, 6
	if testing.Short() {
		seeds, epochs = 4, 3
	}
	for _, k := range []int{2, 3} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			place := []Placement{PlaceAtTPeer, PlaceSpread}[seed%2]
			t.Run(fmt.Sprintf("k=%d/seed=%d", k, seed), func(t *testing.T) {
				sys := newTestSystem(t, 600+seed, func(c *Config) {
					replConfig(k)(c)
					c.Placement = place
				})
				var ticks, holding int // of t-peers
				sys.afterTick = func(p *Peer) {
					if p.Role == TPeer {
						ticks++
						if p.reps().len() > 0 {
							holding++
						}
					}
					for _, m := range missedByTick(p) {
						t.Errorf("t=%v peer %d (%s): %s", sys.Eng().Now(), p.Addr, p.Role, m)
					}
					if t.Failed() {
						t.FailNow()
					}
				}
				fc := simnet.FaultConfig{DropRate: 0.02, DupRate: 0.01, Seed: 700 + seed}
				arm := func() { sys.Net().SetFaults(simnet.NewFaults(fc)) }
				peers, _, err := sys.BuildPopulation(PopulationOpts{N: 100})
				if err != nil {
					t.Fatal(err)
				}
				sys.Settle(10 * sim.Second)
				for i := 0; i < 120; i++ {
					sys.Runtime().Do(func() {
						if p := peers[(i*13)%len(peers)]; p.Alive() {
							p.Store(keyf("diff-%03d", i), "v", nil)
						}
					})
				}
				arm()
				stubs := sys.Topo().StubNodes()
				for epoch := 0; epoch < epochs; epoch++ {
					for i := 0; i < 9; i++ {
						at := sys.Eng().Now() + sim.Time(i)*300*sim.Millisecond
						sys.Eng().At(at, func() {
							live := sys.Peers()
							switch {
							case i%3 == 0:
								sys.Join(JoinOpts{Host: stubs[sys.Eng().Rand().Intn(len(stubs))], Capacity: 1}, nil)
							case len(live) <= 5:
							case i%3 == 1:
								live[sys.Eng().Rand().Intn(len(live))].Leave()
							default:
								live[sys.Eng().Rand().Intn(len(live))].Crash()
							}
						})
					}
					var suspicions []func()
					for i := 0; i < 2; i++ {
						sys.Eng().At(sys.Eng().Now()+sim.Time(i)*sys.Cfg.HelloEvery, func() {
							tps := sys.TPeers()
							p := tps[sys.Eng().Rand().Intn(len(tps))]
							if p.repl != nil && len(p.repl.holds) > 0 {
								owner := p.repl.holds[0].owner
								p.markSuspect(p.t, owner)
								suspicions = append(suspicions, func() { p.t.unsuspect(owner) })
							}
						})
						sys.Eng().At(sys.Eng().Now()+sim.Time(2*i+1)*sys.Cfg.HelloEvery/2, func() {
							live := sys.Peers()
							p := live[sys.Eng().Rand().Intn(len(live))]
							key := keyf("stray-%d-%d", epoch, i)
							if it := (Item{Key: key, Value: "v", DID: idspace.HashKey(key)}); !p.inLocalSegment(it.DID) {
								p.storeLocal(it)
							}
						})
					}
					sys.Settle(4 * sys.Cfg.HelloTimeout)
					for _, lift := range suspicions {
						lift()
					}
				}
				sys.Net().SetFaults(nil)
				sys.Settle(6 * sys.Cfg.HelloTimeout)
				if err := sys.CheckReplication(); err != nil {
					t.Fatal(err)
				}
				if sys.Net().Stats().MessagesDropped == 0 {
					t.Fatal("the fault layer dropped nothing")
				}
				if holding < ticks/2 {
					t.Fatalf("only %d of %d t-peer ticks ran on a replica holder; the test proves little", holding, ticks)
				}
			})
		}
	}
}
