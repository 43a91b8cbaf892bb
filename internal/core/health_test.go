package core

import (
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestHealthScoreQuiescentSystemIsHealthy(t *testing.T) {
	sys := newTestSystem(t, 11, func(c *Config) { c.Ps = 0.6 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 60}); err != nil {
		t.Fatalf("build: %v", err)
	}
	sys.Settle(10 * sim.Second)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	h := sys.HealthScore()
	if !h.Healthy() {
		t.Fatalf("quiescent system scored unhealthy: %+v", h)
	}
	if h.LivePeers != 60 || h.LiveTPeers+h.LiveSPeers != 60 {
		t.Fatalf("population miscount: %+v", h)
	}
	if h.LiveTPeers != len(sys.TPeers()) || h.LiveSPeers != len(sys.SPeers()) {
		t.Fatalf("role miscount: %+v vs %d t / %d s", h, len(sys.TPeers()), len(sys.SPeers()))
	}
	if h.SuspectedPtrs != 0 || h.DeadRingPtrs != 0 || h.UnownedItems != 0 || h.StuckOps != 0 {
		t.Fatalf("quiescent system has nonzero violation counts: %+v", h)
	}
	if h.LiveSPeers > 0 && h.TreeDepthMax < 1 {
		t.Fatalf("s-peers exist but tree depth is %d", h.TreeDepthMax)
	}
}

// TestHealthSamplerTracksCrashWave is the scored-mode acceptance check: a
// crash wave must drive the sampler's gauges visibly unhealthy (dead ring
// pointers, shrunken population), and repair must bring the verdict back to
// healthy — all observed from registry gauges, without failing any check.
func TestHealthSamplerTracksCrashWave(t *testing.T) {
	sys := newTestSystem(t, 12, func(c *Config) { c.Ps = 0.6 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 60}); err != nil {
		t.Fatalf("build: %v", err)
	}
	sys.Settle(10 * sim.Second)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants before crash: %v", err)
	}

	reg := obs.NewRegistry()
	hs := NewHealthSampler(sys, reg, sys.Cfg.HelloEvery)
	sys.Runtime().Do(hs.Start)
	if h, ok := hs.Last(); !ok || !h.Healthy() {
		t.Fatalf("baseline sample missing or unhealthy: %+v ok=%v", h, ok)
	}

	// Crash three live t-peers outright: their neighbors' succ/pred now
	// reference dead peers, which the scored pass must count immediately.
	tps := sys.TPeers()
	if len(tps) < 8 {
		t.Fatalf("too few t-peers to crash: %d", len(tps))
	}
	for _, p := range []*Peer{tps[0], tps[2], tps[4]} {
		p.Crash()
	}
	mid := hs.Sample()
	if mid.Healthy() {
		t.Fatalf("sample right after t-peer crash scored healthy: %+v", mid)
	}
	if mid.DeadRingPtrs == 0 {
		t.Fatalf("crashed t-peers left no dead ring pointers: %+v", mid)
	}
	if mid.LivePeers != 57 {
		t.Fatalf("live peers after crash = %d, want 57", mid.LivePeers)
	}
	if g := reg.Gauge("health.dead_ring_ptrs").Value(); g != float64(mid.DeadRingPtrs) {
		t.Fatalf("gauge %v does not track score %d", g, mid.DeadRingPtrs)
	}
	if g := reg.Gauge("health.healthy").Value(); g != 0 {
		t.Fatalf("health.healthy gauge = %v, want 0 mid-crash", g)
	}

	// Let failure detection and repair run; the ticker keeps sampling the
	// whole way (samples counter proves it ran during churn).
	// At every tick of it the score and the audit's violations must agree.
	samples := reg.Counter("health.samples").Value
	before := samples()
	for end := sys.Eng().Now() + 8*sys.Cfg.HelloTimeout + 10*sys.Cfg.FingerRefreshEvery; sys.Eng().Now() < end; {
		sys.Settle(sys.Cfg.HelloEvery)
		auditAgrees(t, sys)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
	if samples() <= before {
		t.Fatal("ticker took no samples during the repair window")
	}
	end := hs.Sample()
	if !end.Healthy() {
		t.Fatalf("post-repair sample unhealthy: %+v", end)
	}
	if g := reg.Gauge("health.healthy").Value(); g != 1 {
		t.Fatalf("health.healthy gauge = %v, want 1 after repair", g)
	}
	if g := reg.Gauge("health.live_peers").Value(); g != float64(end.LivePeers) {
		t.Fatalf("live-peers gauge %v does not track score %d", g, end.LivePeers)
	}

	hs.Stop()
	stopped := samples()
	sys.Settle(10 * sys.Cfg.HelloEvery)
	if samples() != stopped {
		t.Fatal("sampler kept sampling after Stop")
	}
}

func TestRingSummary(t *testing.T) {
	sys := newTestSystem(t, 13, func(c *Config) { c.Ps = 0.5 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 50})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys.Settle(10 * sim.Second)
	for i := 0; i < 20; i++ {
		if _, err := sys.StoreSync(peers[i], keyf("ring-%03d", i), "v"); err != nil {
			t.Fatalf("store: %v", err)
		}
	}

	v := sys.RingSummary()
	if v.LivePeers != 50 || v.LiveTPeers != len(sys.TPeers()) {
		t.Fatalf("totals wrong: %+v", v)
	}
	if len(v.Ring) != v.LiveTPeers {
		t.Fatalf("ring has %d entries, want %d", len(v.Ring), v.LiveTPeers)
	}
	if v.Items != 20 {
		t.Fatalf("items = %d, want 20", v.Items)
	}
	totalSub := 0
	for i, tp := range v.Ring {
		if i > 0 && v.Ring[i-1].ID >= tp.ID {
			t.Fatalf("ring not in id order at %d", i)
		}
		if tp.Succ == nil || tp.Pred == nil {
			t.Fatalf("t-peer %d missing ring pointers: %+v", tp.Addr, tp)
		}
		totalSub += tp.Subtree
	}
	if totalSub != v.LivePeers {
		t.Fatalf("subtree totals %d do not cover the population %d", totalSub, v.LivePeers)
	}
	if _, err := json.Marshal(v); err != nil {
		t.Fatalf("summary not marshalable: %v", err)
	}
}
