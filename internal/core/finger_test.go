package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/idspace"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Finger maintenance answers in place every probe whose answerer is its
// origin, and arms the round timeout only while a probe is in flight. These
// tests pin both halves and the behaviour they must not change.

// fingerRing builds a settled ring of n t-peers (Ps = 0). The failure
// detector is pushed out of reach so that a test can crash a peer, or drop
// every packet, and still find each survivor's successor where it left it.
func fingerRing(t *testing.T, seed int64, n int) *System {
	t.Helper()
	sys := newTestSystem(t, seed, func(c *Config) {
		c.Ps = 0
		c.HelloTimeout = 3600 * sim.Second
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: n}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sys.Cfg.FingerRefreshEvery)
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// localSlot reports whether p answers finger slot i itself: the slot's start
// lies in (ID, succ.ID].
func localSlot(p *Peer, i int) bool {
	return idspace.Between(p.ID, idspace.FingerStart(p.ID, i), p.t.succ.ID)
}

// TestLocalFingerAnswerSurvivesDrops: an answer a peer gives itself never
// leaves the host, so a network that drops every packet cannot lose it. At
// the parent commit it went through Network.Send and the fault layer, and the
// round timeout then wiped a healthy local slot.
func TestLocalFingerAnswerSurvivesDrops(t *testing.T) {
	sys := fingerRing(t, 31, 8)
	sys.Net().SetFaults(simnet.NewFaults(simnet.FaultConfig{DropRate: 1}))
	// Nine ticks and a half: every slot is probed at least once under the
	// drops, and the eighth round's timeout (due with the ninth tick) fired.
	every := sys.Cfg.FingerRefreshEvery
	sys.Settle(9*every + every/2)
	for _, p := range sys.TPeers() {
		local, lost, kept := 0, 0, 0
		for i := 0; i < FingerBits; i++ {
			switch {
			case localSlot(p, i):
				local++
				if p.t.fingers.at(i) != p.t.succ {
					lost++
				}
			case p.t.fingers.at(i).Valid():
				kept++
			}
		}
		if local == 0 || local == FingerBits {
			t.Fatalf("peer %d: %d local slots, want a mix of local and remote", p.Addr, local)
		}
		if lost != 0 || kept != 0 {
			t.Errorf("peer %d: %d of %d local slots do not hold succ, %d of %d remote slots outlived their dropped probe",
				p.Addr, lost, local, kept, FingerBits-local)
		}
	}
}

// TestCoreNeverSendsToItself drives join, store, crash/join churn and lookup
// with replication on and asserts that no Send names its sender as receiver.
func TestCoreNeverSendsToItself(t *testing.T) {
	sys := newTestSystem(t, 32, func(c *Config) {
		c.Ps = 0.6
		c.ReplicationK = 3
	})
	sends := 0
	toSelf := make(map[string]int) // by message type
	sys.TapSends(func(from, to runtime.Addr, msg any) {
		sends++
		if from == to {
			toSelf[fmt.Sprintf("%T", msg)]++
		}
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 80})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)
	for i := 0; i < 40; i++ {
		if r, err := sys.StoreSync(peers[i%len(peers)], keyf("self-%03d", i), "v"); err != nil || !r.OK {
			t.Fatalf("store %d: %+v %v", i, r, err)
		}
	}
	stubs := sys.Topo().StubNodes()
	for wave := 0; wave < 3; wave++ {
		live := sys.Peers()
		for i := 0; i < 6; i++ {
			live[(wave*7+i*11)%len(live)].Crash()
			sys.Join(JoinOpts{Host: stubs[(wave*6+i)%len(stubs)], Capacity: 1}, nil)
		}
		sys.Settle(4 * sys.Cfg.HelloTimeout)
	}
	sys.Settle(10 * sys.Cfg.HelloTimeout)
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
	live := sys.Peers()
	ok := 0
	for i := 0; i < 40; i++ {
		r, err := sys.LookupSync(live[(i*13)%len(live)], keyf("self-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if r.OK {
			ok++
		}
	}
	if ok < 36 {
		t.Errorf("%d of 40 lookups succeeded after churn at k=3", ok)
	}
	if sends == 0 {
		t.Fatal("the tap saw no traffic")
	}
	if len(toSelf) != 0 {
		t.Errorf("self-addressed sends among %d: %v", sends, toSelf)
	}
}

// TestFingersConvergeToOracle: on a quiescent 64-t-peer ring every finger
// equals the true ring successor of its start, and over one full refresh
// cycle a peer puts exactly one findSuccReq on the wire per slot whose start
// lies beyond its successor — the others it answers itself.
func TestFingersConvergeToOracle(t *testing.T) {
	sys := fingerRing(t, 33, 64)
	ring := sys.TPeers()
	sort.Slice(ring, func(i, j int) bool { return ring[i].ID < ring[j].ID })
	successor := func(id idspace.ID) Ref {
		i := sort.Search(len(ring), func(i int) bool { return ring[i].ID >= id })
		return ring[i%len(ring)].Ref()
	}
	firstHops, want := 0, 0
	sys.TapSends(func(from, to runtime.Addr, msg any) {
		if m, ok := msg.(findSuccReq); ok && m.Hops == 1 && from == m.Origin {
			firstHops++
		}
	})
	sys.Settle(8 * sys.Cfg.FingerRefreshEvery)
	for _, p := range ring {
		for i := 0; i < FingerBits; i++ {
			if !localSlot(p, i) {
				want++
			}
			if got, succ := p.t.fingers.at(i), successor(idspace.FingerStart(p.ID, i)); got != succ {
				t.Errorf("peer %d finger[%d] = %+v, want %+v", p.Addr, i, got, succ)
			}
		}
	}
	if firstHops != want {
		t.Errorf("%d findSuccReq first hops in one refresh cycle, want %d (one per slot beyond succ)", firstHops, want)
	}
}

// TestLoneTPeerFillsFingersSilently: succ == self makes every slot local —
// all 64 filled with the peer itself, no finger message, no timer left over.
func TestLoneTPeerFillsFingersSilently(t *testing.T) {
	sys := newTestSystem(t, 34, nil)
	probes := 0
	sys.TapSends(func(from, to runtime.Addr, msg any) {
		switch msg.(type) {
		case findSuccReq, findSuccResp:
			probes++
		}
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := peers[0]
	sys.Settle(8 * sys.Cfg.FingerRefreshEvery)
	for i, f := range p.t.fingers.slots() {
		if f != p.Ref() {
			t.Errorf("finger[%d] = %+v, want the peer itself", i, f)
		}
	}
	if n := len(p.t.fingers.slots()); n != FingerBits || probes != 0 {
		t.Errorf("%d slots, %d finger messages; want %d slots and none", n, probes, FingerBits)
	}
	// An all-local round schedules nothing: no answer in transit, no timeout.
	before := sys.Eng().Pending()
	p.refreshFingers()
	if after := sys.Eng().Pending(); after != before {
		t.Errorf("all-local round moved Engine.Pending() %d -> %d", before, after)
	}
}

// TestFingerRoundTimeout pins what the comment in refreshFingers describes: a
// probe routed into a crashed finger never answers, and FingerRefreshEvery
// after the round — not a microsecond earlier — the timeout clears that slot,
// and only slots still holding the round's tag.
func TestFingerRoundTimeout(t *testing.T) {
	sys := fingerRing(t, 35, 16)
	const top = FingerBits - 1
	var p *Peer
	var victim Ref
	for _, c := range sys.TPeers() {
		if v := c.closestPreceding(c.t, idspace.FingerStart(c.ID, top)); v.Valid() && v.Addr != c.t.succ.Addr {
			p, victim = c, v
			break
		}
	}
	if p == nil {
		t.Fatal("no t-peer routes its top finger probe through a peer other than its successor")
	}
	sys.peerAt(victim.Addr).Crash()

	const perRound = 8
	first := FingerBits - perRound
	p.t.fingers.next = uint8(first)
	before := p.t.fingers.slots()
	p.refreshFingers()
	if p.t.fingers.tag(top) == 0 {
		t.Fatal("the probe into the crashed finger was answered")
	}
	every := sys.Cfg.FingerRefreshEvery
	sys.Settle(every - 1)
	wedged := make(map[int]bool) // slots of the round still in flight
	for i := first; i < FingerBits; i++ {
		if p.t.fingers.tag(i) != 0 {
			wedged[i] = true
		}
		if p.t.fingers.at(i) != before[i] {
			t.Errorf("slot %d changed before the timeout: %+v -> %+v", i, before[i], p.t.fingers.at(i))
		}
	}
	if len(wedged) == 0 || len(wedged) == perRound {
		t.Fatalf("%d slots in flight just before the timeout, want some but not all of the round", len(wedged))
	}
	sys.Settle(1)
	for i := first; i < FingerBits; i++ {
		switch {
		case wedged[i] && (p.t.fingers.at(i).Valid() || p.t.fingers.tag(i) != 0):
			t.Errorf("slot %d: timeout left finger %+v tag %d", i, p.t.fingers.at(i), p.t.fingers.tag(i))
		case !wedged[i] && p.t.fingers.at(i) != before[i]:
			t.Errorf("slot %d was answered, yet the timeout changed it: %+v -> %+v", i, before[i], p.t.fingers.at(i))
		}
	}
}
