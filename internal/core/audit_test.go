package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// settled60 is the quiescent 60-peer system the audit tests plant faults in.
func settled60(t *testing.T) *System {
	t.Helper()
	sys := newTestSystem(t, 11, func(c *Config) { c.Ps = 0.6 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 60}); err != nil {
		t.Fatalf("build: %v", err)
	}
	sys.Settle(10 * sim.Second)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return sys
}

// auditAgrees holds the two readings of the audit against each other: every
// HealthScore count is the number of violations of that invariant, and a
// system CheckInvariants passes is Healthy with nothing in flight.
func auditAgrees(t *testing.T, sys *System) {
	t.Helper()
	h, vs := sys.HealthScore(), sys.audit()
	n := map[string]int{}
	for _, v := range vs {
		n[v.Invariant]++
	}
	for i := range invariants {
		if inv := &invariants[i]; inv.count != nil && *inv.count(&h) != n[inv.name] {
			t.Errorf("t=%v: HealthScore counts %d %s, the audit lists %d", h.At, *inv.count(&h), inv.name, n[inv.name])
		}
	}
	if (sys.CheckInvariants() == nil) != (len(vs) == 0) {
		t.Errorf("t=%v: CheckInvariants disagrees with an audit of %d violations", h.At, len(vs))
	}
	if len(vs) == 0 && (!h.Healthy() || h.StuckOps != 0) {
		t.Errorf("t=%v: CheckInvariants passes but the score is %+v", h.At, h)
	}
}

// TestAuditTable pins what the table's columns promise: one name per row,
// which is also the row's HealthScore JSON field, and every structural row
// counted — Healthy reads the counts, so an uncounted one could never fail it.
func TestAuditTable(t *testing.T) {
	seen := map[string]bool{}
	for i := range invariants {
		inv := &invariants[i]
		if seen[inv.name] {
			t.Errorf("invariant %s appears twice", inv.name)
		}
		seen[inv.name] = true
		if inv.count == nil {
			if inv.structural {
				t.Errorf("structural invariant %s is not counted by HealthScore", inv.name)
			}
			continue
		}
		var h HealthScore
		*inv.count(&h) = 7
		if h.Healthy() == inv.structural {
			t.Errorf("%s: structural=%v but Healthy()=%v with 7 violations", inv.name, inv.structural, h.Healthy())
		}
		js, _ := json.Marshal(h)
		if !strings.Contains(string(js), `"`+inv.name+`":7`) {
			t.Errorf("%s is not the JSON name of its HealthScore count: %s", inv.name, js)
		}
	}
}

// TestAuditCountsTheDriftedChecks covers the checks the two former audits
// disagreed on: a child edge the parent does not list and a cached t-peer
// that is not the chain's root now fail Healthy, each named with both
// addresses, and an open client operation fails the stuck_ops row, named by
// its origin peer and qid.
func TestAuditCountsTheDriftedChecks(t *testing.T) {
	sys := settled60(t)
	child := sys.SPeers()[0]
	parent, root := sys.Peer(child.cp.Addr), child.tpeer
	want := func(h HealthScore, inv string, addr, peer *Peer) {
		t.Helper()
		if h.Healthy() || len(h.Violations) != 1 {
			t.Fatalf("want one %s violation, got %+v", inv, h)
		}
		if v := h.Violations[0]; v.Invariant != inv || v.Addr != addr.Addr || v.Peer != peer.Addr || v.Detail == "" {
			t.Fatalf("violation %+v, want %s at %d (peer %d)", v, inv, addr.Addr, peer.Addr)
		}
		if err := sys.CheckTrees(); err == nil || !strings.Contains(err.Error(), inv) {
			t.Fatalf("CheckTrees = %v, want %s", err, inv)
		}
	}

	link := parent.children[parent.childIndex(child.Addr)]
	parent.removeChild(child.Addr)
	h := sys.HealthScore()
	if h.UnlistedChildren != 1 {
		t.Fatalf("unlisted child not counted: %+v", h)
	}
	want(h, "unlisted_children", child, parent)
	parent.addChild(link.Ref)

	var other *Peer
	for _, tp := range sys.TPeers() {
		if tp.Addr != root.Addr {
			other = tp
		}
	}
	child.tpeer = other.Ref()
	h = sys.HealthScore()
	if h.RootMismatches != 1 {
		t.Fatalf("wrong cached root not counted: %+v", h)
	}
	want(h, "root_mismatches", child, sys.Peer(root.Addr))
	child.tpeer = root

	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("faults undone, audit still red: %v", err)
	}
	origin := sys.Peers()[0]
	_, qid := origin.newOp("lookup", "stuck-key", nil)
	vs := sys.audit("stuck_ops")
	if len(vs) != 1 || vs[0].Addr != origin.Addr || !strings.Contains(vs[0].Detail, fmt.Sprintf("(qid %d)", qid)) {
		t.Fatalf("audit(stuck_ops) = %+v, want one violation at %d naming qid %d", vs, origin.Addr, qid)
	}
	origin.finishOp(qid, OpResult{})
	if err := sys.check("stuck_ops"); err != nil {
		t.Fatalf("finished op still reported: %v", err)
	}
}

// TestAuditTStateRow: ring state goes with the t-role. An s-peer handed a
// tState and a t-peer without one each fail the quiescence-only t_state row,
// named at the peer, and HealthScore stays healthy: the row is unscored.
func TestAuditTStateRow(t *testing.T) {
	sys := settled60(t)
	sp, tp := sys.SPeers()[0], sys.TPeers()[0]
	sp.swapRingState(new(tState))
	vs := sys.audit("t_state")
	if len(vs) != 1 || vs[0].Addr != sp.Addr || !strings.Contains(vs[0].Detail, "s-peer holds ring state: true") {
		t.Fatalf("audit(t_state) = %+v, want one violation at s-peer %d", vs, sp.Addr)
	}
	if err := sys.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "t_state") {
		t.Fatalf("CheckInvariants = %v, want a t_state violation", err)
	}
	if h := sys.HealthScore(); !h.Healthy() {
		t.Fatalf("t_state is quiescence-only, yet the score is unhealthy: %+v", h)
	}
	sp.swapRingState(nil)

	ring := tp.swapRingState(nil)
	if vs := sys.audit("t_state"); len(vs) != 1 || vs[0].Addr != tp.Addr {
		t.Fatalf("audit(t_state) = %+v, want one violation at t-peer %d", vs, tp.Addr)
	}
	tp.swapRingState(ring)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("faults undone, audit still red: %v", err)
	}
}

// TestAuditSkipsFullViewRowsOnSlice: data ownership needs the whole ring, so
// an item planted outside its segment is reported on the full view and not
// evaluated once the same system is marked a slice of a deployment.
func TestAuditSkipsFullViewRowsOnSlice(t *testing.T) {
	sys := settled60(t)
	tps := sys.TPeers()
	holder := tps[0]
	// tps[1]'s own id lies in tps[1]'s segment, not in tps[0]'s.
	did := tps[1].ID
	holder.dataPut(Item{Key: "foreign", DID: did})

	vs := sys.audit("unowned_items")
	if len(vs) != 1 || vs[0].Addr != holder.Addr || vs[0].Peer != tps[1].Addr {
		t.Fatalf("full view: %+v, want one unowned item at %d owned by %d", vs, holder.Addr, tps[1].Addr)
	}
	if h := sys.HealthScore(); h.UnownedItems != 1 || h.Healthy() {
		t.Fatalf("full view score: %+v", h)
	}
	sys.MarkPartial()
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("slice evaluated a full-view invariant: %v", err)
	}
	if h := sys.HealthScore(); h.UnownedItems != 0 || !h.Healthy() {
		t.Fatalf("slice score: %+v", h)
	}
}

// TestGreenAuditFormatsNothing: a healthy pass allocates the view's three
// peer slices and nothing per peer or per invariant — 10 allocations on this
// system, against 11 for the HealthScore it replaced.
func TestGreenAuditFormatsNothing(t *testing.T) {
	sys := settled60(t)
	if h := sys.HealthScore(); h.Violations != nil {
		t.Fatalf("green audit lists violations: %+v", h.Violations)
	}
	if got := testing.AllocsPerRun(100, func() { sys.HealthScore() }); got > 11 {
		t.Fatalf("HealthScore on a healthy 60-peer system: %.0f allocs, want <= 11", got)
	}
}
