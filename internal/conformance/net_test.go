package conformance

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	rnet "repro/internal/runtime/net"
)

// netConfig mirrors liveConfig: the socket runtime is also wall-clock, so it
// shares the live timer scale.
func netConfig() core.Config {
	return liveConfig()
}

// netOutcome runs the shared scenario on the TCP socket runtime. A single
// bootstrap process hosts every peer, but delivery is not in-process: the
// socket runtime routes every Send through the codec, the wire envelope and
// a real loopback TCP connection (self-dial), so the whole scenario — joins,
// heartbeats, crash repair, lookups — exercises the serialization path.
// Multi-process operation is covered by scripts/net_smoke.sh.
func netOutcome(t *testing.T) outcome {
	t.Helper()
	rt, err := rnet.New(rnet.Config{
		Listen:       "127.0.0.1:0",
		Messages:     core.WireMessages(),
		Seed:         scenarioSeed,
		AwaitTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return runScenario(t, rt, netConfig())
}

// TestConformanceDESvsNet runs the shared scenario on the socket runtime and
// holds it to the same outcome bands as the DES reference: same address
// sequence, same membership split, full storage, equivalent lookup success
// before and after the crash wave.
func TestConformanceDESvsNet(t *testing.T) {
	if testing.Short() {
		t.Skip("socket half needs wall-clock seconds")
	}
	des := desOutcome(t)
	nt := netOutcome(t)

	if len(des.addrs) != len(nt.addrs) {
		t.Fatalf("peer counts differ: des=%d net=%d", len(des.addrs), len(nt.addrs))
	}
	for i := range des.addrs {
		if des.addrs[i] != nt.addrs[i] {
			t.Fatalf("addr sequence diverges at %d: des=%d net=%d", i, des.addrs[i], nt.addrs[i])
		}
	}

	for name, o := range map[string]outcome{"des": des, "net": nt} {
		if o.tPeers == 0 || o.sPeers == 0 {
			t.Errorf("%s: degenerate split: %d t-peers, %d s-peers", name, o.tPeers, o.sPeers)
		}
		if o.tPeers+o.sPeers != scenarioN {
			t.Errorf("%s: %d+%d peers, want %d", name, o.tPeers, o.sPeers, scenarioN)
		}
		if o.stored != scenarioItems {
			t.Errorf("%s: stored %d/%d items", name, o.stored, scenarioItems)
		}
		if o.okBefore < scenarioLookups*98/100 {
			t.Errorf("%s: pre-crash lookups %d/%d", name, o.okBefore, scenarioLookups)
		}
		if o.survivors != scenarioN-scenarioCrash {
			t.Errorf("%s: %d survivors, want %d", name, o.survivors, scenarioN-scenarioCrash)
		}
		if o.okAfter < scenarioLookups*70/100 {
			t.Errorf("%s: post-crash lookups %d/%d below 70%%", name, o.okAfter, scenarioLookups)
		}
	}

	diff := des.okAfter - nt.okAfter
	if diff < 0 {
		diff = -diff
	}
	if diff > scenarioLookups*25/100 {
		t.Errorf("post-crash success diverges: des=%d net=%d (Δ%d of %d)",
			des.okAfter, nt.okAfter, diff, scenarioLookups)
	}
	t.Logf("des: %+v", des)
	t.Logf("net: %+v", nt)
}

// TestPartialViewAudit runs the one structural audit on both halves of a
// two-process deployment (two socket runtimes, a bootstrap System and a
// peer-only one, in this process): CheckInvariants is green on each slice
// once the ring has settled. When a t-peer crashes whose ring neighbour
// lives in the other process, that process's audit — through its copy of
// the cluster directory, since the address is not in its table — names the
// invariant and the dead address until the repair lands, and then both
// slices are green again. It runs once each way: a worker's t-peer seen from
// the bootstrap, and a bootstrap's t-peer seen from the worker, whose copy
// the bootstrap pushes.
func TestPartialViewAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("needs wall-clock seconds")
	}
	cfg := netConfig()
	cfg.HelloTimeout = 1 * runtime.Second // a wide window to observe the crash in
	role := core.TPeer
	var rts []*rnet.Runtime
	var syss []*core.System
	for i := 0; i < 2; i++ {
		ncfg := rnet.Config{
			Listen:       "127.0.0.1:0",
			Messages:     core.WireMessages(),
			Seed:         scenarioSeed + int64(i),
			AwaitTimeout: 60 * time.Second,
		}
		if i > 0 {
			ncfg.Bootstrap = rts[0].Endpoint()
		}
		rt, err := rnet.New(ncfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		var sys *core.System
		if i == 0 {
			sys, err = core.NewSystem(rt, cfg, 0)
		} else {
			sys, err = core.NewPeerSystem(rt, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		sys.MarkPartial()
		if _, _, err := sys.BuildPopulation(core.PopulationOpts{N: 6, ForceRole: &role}); err != nil {
			t.Fatal(err)
		}
		rts, syss = append(rts, rt), append(syss, sys)
	}
	boot, worker := syss[0], syss[1]
	awaitInvariants(t, rts[0], boot, "on the bootstrap's slice")
	awaitInvariants(t, rts[1], worker, "on the worker's slice")

	// edge waits until the t-peers of both processes form a ring whose every
	// link both ends agree on — what neither slice's audit can check, and
	// what keeps a closer t-peer from taking over a crashed one's pointer at
	// once — and returns a link from a worker t-peer to its bootstrap
	// successor.
	edge := func() (onBoot, onWorker runtime.Addr) {
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			succ, pred, host := map[runtime.Addr]runtime.Addr{}, map[runtime.Addr]runtime.Addr{}, map[runtime.Addr]int{}
			for i := range rts {
				rts[i].Do(func() {
					for _, p := range syss[i].TPeers() {
						succ[p.Addr], pred[p.Addr], host[p.Addr] = p.Successor().Addr, p.Predecessor().Addr, i
					}
				})
			}
			agree := true
			onBoot, onWorker = runtime.None, runtime.None
			for a, s := range succ {
				agree = agree && pred[s] == a
				if host[a] == 1 && host[s] == 0 {
					onBoot, onWorker = s, a
				}
			}
			if agree && onBoot != runtime.None {
				return onBoot, onWorker
			}
			if time.Now().After(deadline) {
				t.Fatalf("the ring never settled with a link across the processes: succ %v, pred %v", succ, pred)
			}
		}
	}
	// crash crashes victim in process v and waits until the audit of process
	// w names the dead pointer at witness, then until the repair lands.
	crash := func(w, v int, witness, victim runtime.Addr) {
		rts[v].Do(func() { syss[v].Peer(victim).Crash() })
		want := fmt.Sprintf("dead_ring_ptrs at %d (peer %d)", witness, victim)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			var err error
			rts[w].Do(func() { err = syss[w].CheckInvariants() })
			if err != nil && strings.Contains(err.Error(), want) {
				break
			}
			if time.Now().After(deadline) {
				// Tell a repair that healed the pointer before any audit
				// ran apart from an audit that missed a pointer still there.
				var succ, pred runtime.Addr
				rts[w].Do(func() {
					if p := syss[w].Peer(witness); p != nil {
						succ, pred = p.Successor().Addr, p.Predecessor().Addr
					}
				})
				verdict := "still names the victim: the audit missed the pointer"
				if succ != victim && pred != victim {
					verdict = "had already moved past the victim: the repair won the race"
				}
				t.Fatalf("audit of process %d after the crash in process %d = %v, want %q; at the deadline witness %d (succ %d, pred %d) %s",
					w, v, err, want, witness, succ, pred, verdict)
			}
		}
		awaitInvariants(t, rts[0], boot, "on the bootstrap's slice after repair")
		awaitInvariants(t, rts[1], worker, "on the worker's slice after repair")
	}
	b, w := edge()
	crash(0, 1, b, w)
	b, w = edge()
	crash(1, 0, w, b)
}
