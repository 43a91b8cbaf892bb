package core

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestConfigValidateErrors(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"ps<0", func(c *Config) { c.Ps = -0.1 }},
		{"ps>1", func(c *Config) { c.Ps = 1.1 }},
		{"placement7", func(c *Config) { c.Placement = 7 }},
		{"delta<2", func(c *Config) { c.Delta = 1 }},
		{"ttl<1", func(c *Config) { c.TTL = 0 }},
		{"hello0", func(c *Config) { c.HelloEvery = 0 }},
		{"timeout<=hello", func(c *Config) { c.HelloTimeout = c.HelloEvery }},
		{"lookup0", func(c *Config) { c.LookupTimeout = 0 }},
		{"join0", func(c *Config) { c.JoinTimeout = 0 }},
		{"finger0", func(c *Config) { c.FingerRefreshEvery = 0 }},
		{"landmarks<0", func(c *Config) { c.Landmarks = -1 }},
		{"k0", func(c *Config) { c.ReplicationK = 0 }},
		{"alpha0", func(c *Config) { c.LookupAlpha = 0 }},
		{"route7", func(c *Config) { c.Route = 7 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestConfigWithDefaults: nothing fills a zero field in any more. A zero
// Config is refused, and so is a partial one; a zero that is meaningful
// (SuppressTimeout: never suppress; Landmarks: the smallest-s-network rule)
// is accepted.
func TestConfigWithDefaults(t *testing.T) {
	var zero Config
	if err := zero.Validate(); err == nil {
		t.Fatal("zero Config accepted")
	}
	if _, err := NewSystem(nil, Config{Delta: 5, TTL: 9}, 0); err == nil {
		t.Fatal("NewSystem accepted Config{Delta: 5, TTL: 9}")
	}
	c := DefaultConfig()
	c.SuppressTimeout, c.Landmarks = 0, 0
	if err := c.Validate(); err != nil {
		t.Fatalf("meaningful or unused zeros refused: %v", err)
	}
}

func TestEnumStrings(t *testing.T) {
	if TPeer.String() != "t-peer" || SPeer.String() != "s-peer" {
		t.Fatal("Role strings")
	}
	if PlaceAtTPeer.String() != "t-peer" || PlaceSpread.String() != "spread" {
		t.Fatal("Placement strings")
	}
	if RouteFinger.String() != "finger" || RouteSuccessor.String() != "succ" {
		t.Fatal("Route strings")
	}
}

func TestPeerAccessors(t *testing.T) {
	sys := newTestSystem(t, 90, func(c *Config) { c.Ps = 0.6 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 30}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	tp := sys.TPeers()[0]
	if !tp.Successor().Valid() || !tp.Predecessor().Valid() {
		t.Fatal("t-peer ring accessors invalid")
	}
	if tp.tpeer.Addr != tp.Addr {
		t.Fatal("t-peer is its own s-network root")
	}
	if tp.ConnectPoint().Valid() {
		t.Fatal("t-peer has a connect point")
	}
	sp := sys.SPeers()[0]
	if !sp.ConnectPoint().Valid() || !sp.tpeer.Valid() {
		t.Fatal("s-peer accessors invalid")
	}
	if sp.NumItems() != sp.data.len() {
		t.Fatal("NumItems mismatch")
	}
}

func TestServerAccessors(t *testing.T) {
	sys := newTestSystem(t, 91, func(c *Config) { c.Ps, c.Landmarks = 0.6, 8 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 40}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	sv := sys.Server()
	if len(sv.ring) != len(sys.TPeers()) {
		t.Fatalf("RingSize %d != live t-peers %d", len(sv.ring), len(sys.TPeers()))
	}
	if len(sv.Landmarks()) == 0 {
		t.Fatal("no landmarks")
	}
	total := 0
	for _, e := range sv.ring {
		total += e.size
	}
	if total != len(sys.SPeers()) {
		t.Fatalf("registry s-peer count %d != live %d", total, len(sys.SPeers()))
	}
}

func TestRingLocateHealsOrphanTPeer(t *testing.T) {
	// White box: blow away a t-peer's ring pointers; the next finger tick
	// must re-anchor it through the server's registry.
	sys := newTestSystem(t, 92, func(c *Config) { c.Ps = 0 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 12}) // all t-peers
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(5 * sim.Second)
	victim := peers[5]
	victim.t.pred = NilRef
	victim.t.succ = NilRef
	sys.Settle(6 * sys.Cfg.FingerRefreshEvery)
	if !victim.t.succ.Valid() {
		t.Fatal("orphaned t-peer did not re-anchor")
	}
	// Stabilization then reconciles the whole ring.
	sys.Settle(10 * sys.Cfg.FingerRefreshEvery)
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerIndexRemoveOnLoadTransfer(t *testing.T) {
	// When a t-join moves items out of a tracker s-network, the tracker's
	// stale index entries must be withdrawn.
	sys := newTestSystem(t, 93, func(c *Config) {
		c.Ps = 0.5
		c.TrackerMode = true
	})
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 20})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(6 * sys.Cfg.HelloEvery)
	for i := 0; i < 120; i++ {
		if _, err := sys.StoreSync(peers[i%20], keyf("idx-%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Grow the ring: segments split, load transfers run, indexes shrink.
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 20}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sim.Second)
	// Every lookup must still resolve (fresh announcements beat stale
	// entries; stale fetches fall back to notFound and the data is found
	// via its new tracker).
	ok := 0
	for i := 0; i < 120; i++ {
		r, err := sys.LookupSync(sys.Peers()[i%sys.NumPeers()], keyf("idx-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if r.OK {
			ok++
		}
	}
	if ok < 110 {
		t.Fatalf("only %d/120 tracker lookups after ring growth", ok)
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Two systems built with identical seeds and workloads must agree on
	// every observable statistic.
	run := func() (SystemStats, int, int) {
		sys := newTestSystem(t, 94, func(c *Config) { c.Ps = 0.7 })
		peers, _, err := sys.BuildPopulation(PopulationOpts{N: 50})
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(10 * sim.Second)
		for i := 0; i < 60; i++ {
			if _, err := sys.StoreSync(peers[i%50], keyf("det-%03d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
		hops := 0
		for i := 0; i < 60; i++ {
			r, err := sys.LookupSync(peers[(i*7)%50], keyf("det-%03d", i))
			if err != nil {
				t.Fatal(err)
			}
			hops += r.Hops
		}
		return sys.Stats(), hops, int(sys.Eng().Dispatched())
	}
	s1, h1, d1 := run()
	s2, h2, d2 := run()
	if s1 != s2 || h1 != h2 || d1 != d2 {
		t.Fatalf("non-deterministic:\n%+v hops=%d events=%d\n%+v hops=%d events=%d", s1, h1, d1, s2, h2, d2)
	}
}

// TestMechanismLedgerMatchesConfig holds DESIGN.md's "Mechanism ledger" to
// Config: one row per field other than the paper's own four parameters, so a
// knob can neither arrive unaccounted for nor leave a row behind.
func TestMechanismLedgerMatchesConfig(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ledger, ok := strings.Cut(string(raw), "\n## Mechanism ledger")
	if !ok {
		t.Fatal(`DESIGN.md has no "Mechanism ledger" section`)
	}
	rows := make(map[string]int)
	inTable := false
	for _, line := range strings.Split(ledger, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		if name, ok := strings.CutPrefix(strings.TrimSpace(first), "`"); ok {
			rows[strings.TrimSuffix(name, "`")]++
		}
	}
	paper := map[string]bool{"Ps": true, "Delta": true, "TTL": true, "Placement": true}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if paper[name] {
			continue
		}
		if rows[name] != 1 {
			t.Errorf("Config.%s has %d ledger rows, want 1", name, rows[name])
		}
		delete(rows, name)
	}
	stale := make([]string, 0, len(rows))
	for name := range rows {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("ledger row %q names no Config field beyond Ps/Delta/TTL/Placement", name)
	}
}
