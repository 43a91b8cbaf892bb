// Quickstart: build a small hybrid peer-to-peer system, insert a few data
// items and look them up, printing what the two-tier protocol did for each
// operation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole walkthrough, printing to w.
func run(w io.Writer) error {
	// 1. A physical network for the overlay to live on. The generator
	// produces a GT-ITM-style transit-stub topology; peers sit on stub
	// (edge) nodes and every overlay message pays real path latency.
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), 7)
	if err != nil {
		return err
	}

	// 2. The simulation substrate: a deterministic event engine plus the
	// message layer.
	eng := sim.New(7)
	net := simnet.New(eng, topo, simnet.DefaultConfig())

	// 3. The hybrid system itself: half t-peers (the structured ring),
	// half s-peers (the unstructured trees hanging off it).
	cfg := core.DefaultConfig()
	cfg.Ps = 0.5
	sys, err := core.NewSystem(simnet.NewRuntime(eng, net), cfg, topo.StubNodes()[0])
	if err != nil {
		return err
	}

	peers, joins, err := sys.BuildPopulation(core.PopulationOpts{N: 100})
	if err != nil {
		return err
	}
	sys.Settle(5 * sim.Second)
	if err := sys.CheckRing(); err != nil {
		return err
	}

	fmt.Fprintf(w, "system up: %d t-peers on the ring, %d s-peers in trees\n",
		len(sys.TPeers()), len(sys.SPeers()))
	var totalHops int
	for _, js := range joins {
		totalHops += js.Hops
	}
	fmt.Fprintf(w, "average join cost: %.2f overlay hops\n\n", float64(totalHops)/float64(len(joins)))

	// 4. Insert data. store(key, value) hashes the key to a d_id; if the
	// local s-network owns that segment the item stays local, otherwise it
	// rides the ring to the owning s-network.
	files := []string{"papers/hybrid-p2p.pdf", "music/track01.ogg", "iso/linux.iso"}
	for i, key := range files {
		r, err := sys.StoreSync(peers[i*7], key, fmt.Sprintf("contents of %s", key))
		if err != nil {
			return err
		}
		holder := sys.Peer(r.Holder.Addr)
		fmt.Fprintf(w, "store  %-22s -> landed on peer %d (%v) after %d hops\n",
			key, r.Holder.Addr, holder.Role, r.Hops)
	}
	fmt.Fprintln(w)

	// 5. Look the data up from unrelated peers. Each result reports hop
	// count, simulated latency and how many peers the query contacted.
	for i, key := range files {
		origin := peers[50+i*9]
		r, err := sys.LookupSync(origin, key)
		if err != nil {
			return err
		}
		if !r.OK {
			fmt.Fprintf(w, "lookup %-22s FAILED\n", key)
			continue
		}
		fmt.Fprintf(w, "lookup %-22s ok: %d hops, %.1f ms, %d peers contacted, value %q\n",
			key, r.Hops, float64(r.Latency)/float64(sim.Millisecond), r.Contacts, r.Value)
	}

	// 6. Peers can leave gracefully (a leaving t-peer hands its ring
	// position to one of its s-peers) and the ring stays consistent.
	leaving := sys.TPeers()[0]
	fmt.Fprintf(w, "\nt-peer %d leaves; an s-peer substitutes in place...\n", leaving.Addr)
	leaving.Leave()
	sys.Settle(5 * sim.Second)
	if err := sys.CheckRing(); err != nil {
		return fmt.Errorf("ring broken after leave: %w", err)
	}
	fmt.Fprintf(w, "ring still consistent: %d t-peers, %d promotions happened\n",
		len(sys.TPeers()), sys.Stats().Promotions)
	return nil
}
