package conformance

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime/live"
)

// TestLiveChurn runs sustained churn against the live runtime: peers crash
// while replacements join and clients keep issuing operations from separate
// goroutines. Under -race this is the main concurrency exercise for the
// executor-lock model — the dispatcher, wall-clock timer firings, and
// external Do/Await callers all contend for the same protocol state.
func TestLiveChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("needs wall-clock seconds")
	}
	cfg := liveConfig()
	rt := live.New(live.Config{Seed: 11, Delay: 200 * time.Microsecond, AwaitTimeout: 60 * time.Second})
	t.Cleanup(rt.Close)
	sys, err := core.NewSystem(rt, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	peers, _, err := sys.BuildPopulation(core.PopulationOpts{N: 64})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * cfg.HelloEvery)

	// Seed some data so the churn has something to disturb.
	keys := make([]string, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("churn-%03d", i)
		if _, err := sys.StoreSync(peers[i%len(peers)], keys[i], "v"); err != nil {
			t.Fatal(err)
		}
	}

	// A client goroutine issues lookups concurrently with the churn script
	// below. Its failures are expected (items die with their holders); what
	// must not happen is a wedge (Await timeout) or a race report.
	stop := make(chan struct{})
	clientDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				clientDone <- nil
				return
			default:
			}
			var origin *core.Peer
			rt.Do(func() {
				if livePeers := sys.Peers(); len(livePeers) > 0 {
					origin = livePeers[i%len(livePeers)]
				}
			})
			if origin == nil {
				continue
			}
			if _, err := sys.LookupSync(origin, keys[i%len(keys)]); err != nil {
				clientDone <- err
				return
			}
		}
	}()

	// Churn script: 10 rounds of crash-one, join-one.
	for round := 0; round < 10; round++ {
		rt.Do(func() {
			livePeers := sys.Peers()
			if len(livePeers) > 1 {
				livePeers[rt.Rand().Intn(len(livePeers))].Crash()
			}
		})
		if _, _, err := sys.JoinSync(core.JoinOpts{Capacity: 1}); err != nil {
			t.Fatalf("round %d join: %v", round, err)
		}
		sys.Settle(cfg.HelloTimeout)
	}
	close(stop)
	if err := <-clientDone; err != nil {
		t.Fatalf("concurrent client: %v", err)
	}

	// Let the failure detectors finish and require full consistency.
	sys.Settle(3 * cfg.HelloTimeout)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var err error
		rt.Do(func() { err = sys.CheckInvariants() })
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("invariants after churn: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	var n int
	rt.Do(func() { n = sys.NumPeers() })
	if n != 64 {
		t.Fatalf("peer count after balanced churn: %d, want 64", n)
	}

	// The cluster must still serve operations end to end.
	var p *core.Peer
	rt.Do(func() { p = sys.Peers()[0] })
	r, err := sys.StoreSync(p, "post-churn", "v")
	if err != nil || !r.OK {
		t.Fatalf("post-churn store: ok=%v err=%v", r.OK, err)
	}
	r, err = sys.LookupSync(p, "post-churn")
	if err != nil || !r.OK {
		t.Fatalf("post-churn lookup: ok=%v err=%v", r.OK, err)
	}
}
