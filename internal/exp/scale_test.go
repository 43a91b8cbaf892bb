package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// TestScaleSizes pins which population sizes a Scale run builds: the whole
// ladder at the default size, the one size asked for otherwise, and one
// point of at most 10k in quick mode.
func TestScaleSizes(t *testing.T) {
	full, quick := DefaultOptions(), QuickOptions()
	for _, tc := range []struct {
		quick bool
		n     int
		want  []int
	}{
		{false, full.N, []int{10_000, 100_000, 1_000_000}},
		{false, 100_000, []int{100_000}},
		{false, 10_000, []int{10_000}},
		{false, 5_000, []int{5_000}},
		{true, quick.N, []int{quick.N}},
		{true, 2_000, []int{2_000}},
		{true, 100_000, []int{10_000}},
		{true, 0, []int{10_000}},
	} {
		o := full
		if tc.quick {
			o = quick
		}
		o.N = tc.n
		if got := scaleSizes(o); !slices.Equal(got, tc.want) {
			t.Errorf("quick=%v n=%d: sizes %v, want %v", tc.quick, tc.n, got, tc.want)
		}
	}
}

// TestScaleQuickGolden pins the deterministic table of the quick Scale point
// that `scripts/check.sh scale` runs (-quick -n 2000): population split,
// events, simulated time and lookups answered, hashed into
// testdata/scale_golden.sha256. The key values and notes are wall-clock and
// heap readings and are left out. Same rule as the other goldens: only a
// change that means to move the table regenerates the file.
func TestScaleQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-peer system")
	}
	want := readGolden(t, "testdata/scale_golden.sha256")["Scale"]
	o := QuickOptions()
	o.N, o.Workers = 2000, 1
	res, err := RunScale(o)
	if err != nil {
		t.Fatal(err)
	}
	table := res.Tables[0].String()
	sum := sha256.Sum256([]byte(table))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Scale table changed:\n%s\nScale %s\nwant %q", table, got, want)
	}
}

// scaleBytesPerPeerBound caps the live heap per peer that the quick Scale
// point (-quick -n 2000) grows across its population build. It was recorded
// once, from the tree where an s-peer stopped carrying ring, pending-join and
// enhancement state: that tree reads 530 bytes/peer (512 on a process's first
// point), where the layout before it read 800. The bound adds 30 bytes, about
// 6 %, for runtime drift across Go releases; it is not to be re-tuned to let a
// larger peer through.
const scaleBytesPerPeerBound = 560

// TestScaleBytesPerPeer holds the quick Scale point's bytes/peer under
// scaleBytesPerPeerBound. The figure is live heap after a forced GC, so it
// does not depend on the host.
func TestScaleBytesPerPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-peer system")
	}
	o := QuickOptions()
	o.N, o.Workers = 2000, 1
	res, err := RunScale(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Values["bytes_per_peer_n2000"]; got > scaleBytesPerPeerBound {
		t.Errorf("the quick Scale point grows %.1f bytes of live heap per peer, want at most %d", got, scaleBytesPerPeerBound)
	}
}

// TestScaleRegistrySizesExact builds and settles the quick Scale point
// (-quick -n 2000) as runScalePoint does and requires the server's size of
// every s-network to equal the number of live s-peers under its t-peer (the
// audit's server_accounting row). The sizes decide where the smallest-s-network
// rule puts each joiner, so a registry that lags the trees shapes them.
func TestScaleRegistrySizesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-peer system")
	}
	o := QuickOptions()
	const n = 2000
	topo, err := topology.GenerateTransitStub(expTopoConfig(Options{Quick: true}), o.topoSeed())
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaleConfig()
	eng := sim.New(o.Seed + int64(n))
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	sys, err := core.NewSystem(simnet.NewRuntime(eng, net), cfg, topo.StubNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.BuildPopulation(core.PopulationOpts{N: n}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(2 * cfg.HelloEvery)

	var wrong []error
	if joined, ok := sys.CheckInvariants().(interface{ Unwrap() []error }); ok {
		for _, err := range joined.Unwrap() {
			var v core.Violation
			if errors.As(err, &v) && v.Invariant == "server_accounting" {
				wrong = append(wrong, err)
			}
		}
	}
	if len(wrong) > 0 {
		t.Errorf("%d of %d registry entries are wrong after the build:\n%v", len(wrong), len(sys.TPeers()), errors.Join(wrong...))
	}
}
