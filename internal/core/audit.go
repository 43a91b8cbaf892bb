package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// This file is the structural audit: every property the protocol is supposed
// to re-establish after churn, each stated once, in one table. Everything
// that asks "is the system consistent" is a reading of one pass over that
// table: CheckInvariants, CheckRing and CheckTrees join the violations into
// an error, HealthScore (health.go) counts them, /healthz lists them and
// RingSummary (introspect.go) takes its totals from the same view. The pass
// is read-only — no clock beyond a timestamp, no randomness, no message — and
// must run under the runtime's execution guarantee.

// Violation is one invariant broken at one address.
type Violation struct {
	// Invariant is the name of the table entry below that failed.
	Invariant string `json:"invariant"`
	// Addr is the peer the violation was found at and Peer the far end of
	// the pointer involved; runtime.None where there is none (a system-wide
	// counter, a missing pointer).
	Addr   runtime.Addr `json:"addr"`
	Peer   runtime.Addr `json:"peer"`
	Detail string       `json:"detail"`
}

// Error makes a violation one of the errors a Check* method joins, so a
// caller that wants them as data can unwrap them.
func (v Violation) Error() string {
	return fmt.Sprintf("core: %s at %d (peer %d): %s", v.Invariant, v.Addr, v.Peer, v.Detail)
}

// invariant is one row of the audit table.
type invariant struct {
	// name is the invariant's one name everywhere: Violation.Invariant, the
	// HealthScore JSON field and the "health."-prefixed gauge.
	name string
	// structural: a violation means ring pointers, trees, degree bounds or
	// data placement are broken right now, and fails HealthScore.Healthy.
	// The others are quiescence-only — legitimate while work or repair is
	// in flight — and fail only the Check* methods.
	structural bool
	// fullView: decidable only against the whole membership. On a partial
	// system (one process of a cluster) view.run skips the row; no caller
	// does. The other rows are decidable from a slice: they judge every
	// edge whose two ends are local and ask view.liveAt about the rest.
	fullView bool
	// check reports every violation through view.report.
	check func(*view)
	// count is where HealthScore keeps the row's count; nil for rows the
	// sampler's tick does not pay for.
	count func(*HealthScore) *int
}

// invariants is the audit table, structural rows first so that a capped
// listing (HealthScore.Violations) shows them ahead of in-flight operations.
var invariants = []invariant{
	// Every live t-peer's succ and pred name a live t-peer.
	{"dead_ring_ptrs", true, false, (*view).deadRingPtrs, func(h *HealthScore) *int { return &h.DeadRingPtrs }},
	// A t-peer's successor names it as predecessor.
	{"broken_ring_links", true, false, (*view).brokenRingLinks, func(h *HealthScore) *int { return &h.BrokenRingLinks }},
	// Every live s-peer has a live connect point.
	{"orphan_speers", true, false, (*view).orphanSPeers, func(h *HealthScore) *int { return &h.OrphanSPeers }},
	// A connect point lists the s-peer as its child.
	{"unlisted_children", true, false, (*view).unlistedChildren, func(h *HealthScore) *int { return &h.UnlistedChildren }},
	// Following connect points reaches a t-peer, the one the s-peer caches.
	{"root_mismatches", true, false, (*view).rootMismatches, func(h *HealthScore) *int { return &h.RootMismatches }},
	// The δ bound (§3.2.2): s-peer degree ≤ δ, t-peer children ≤ 2δ.
	{"delta_violations", true, false, (*view).deltaViolations, func(h *HealthScore) *int { return &h.DeltaViolations }},
	// Every stored item lives in the s-network whose segment covers it.
	{"unowned_items", true, true, (*view).unownedItems, func(h *HealthScore) *int { return &h.UnownedItems }},
	// No client operation is pending.
	{"stuck_ops", false, false, (*view).stuckOps, func(h *HealthScore) *int { return &h.StuckOps }},
	// The successor walk from the smallest id visits every t-peer once.
	{"ring_coverage", false, true, (*view).ringCoverage, nil},
	// No failure-detection timer watches a dead peer.
	{"dead_watchdogs", false, false, (*view).deadWatchdogs, nil},
	// The server's registry and s-network sizes match the live system.
	{"server_accounting", false, true, (*view).serverAccounting, nil},
	// Every stored item has min(k, t-peers) distinct holders (k > 1).
	{"replica_holders", false, true, (*view).replicaHolders, nil},
	// The running replication sums match a recount of the sets they cover.
	{"replica_sums", false, false, (*view).replicaSums, nil},
	// A peer holds ring state exactly while it holds the t-role.
	{"t_state", false, false, (*view).ringState, nil},
}

// view is what one audit pass shares between invariants.
type view struct {
	s *System
	// live is the live local peers in address order, sps the s-peers among
	// them, tps the t-peers in ring order (id, then address).
	live, sps, tps []*Peer
	cur            *invariant
	out            []Violation
}

func newView(s *System) *view {
	return &view{s: s, live: s.Peers(), sps: s.SPeers(), tps: s.TPeers()}
}

// audit evaluates the named invariants (all of them when none is named) and
// returns their violations in table order, sorted within a row. A name that
// is not in the table is a bug: the check would silently pass for ever.
func (s *System) audit(names ...string) []Violation {
	v, named := newView(s), 0
	for i := range invariants {
		if inv := &invariants[i]; len(names) == 0 || slices.Contains(names, inv.name) {
			named++
			v.run(inv)
		}
	}
	if len(names) > 0 && named != len(names) {
		panic(fmt.Sprintf("core: audit: no such invariant among %v", names))
	}
	return v.out
}

// run evaluates one row and returns how many violations it added. Rows that
// need the whole membership are skipped on a partial view here and nowhere
// else. A row's violations are sorted, so a failing run lists the same ones
// in the same order whatever order its maps iterated in.
func (v *view) run(inv *invariant) int {
	if inv.fullView && v.s.partial {
		return 0
	}
	v.cur = inv
	start := len(v.out)
	inv.check(v)
	row := v.out[start:]
	slices.SortFunc(row, func(a, b Violation) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Detail, b.Detail))
	})
	return len(row)
}

// report records a violation of the running row. Detail is formatted here,
// so a green audit formats nothing.
func (v *view) report(addr, peer runtime.Addr, format string, args ...any) {
	v.out = append(v.out, Violation{v.cur.name, addr, peer, fmt.Sprintf(format, args...)})
}

// local returns the live peer the local table holds at a, or nil.
func (v *view) local(a runtime.Addr) *Peer {
	if p := v.s.peerAt(a); p != nil && p.alive {
		return p
	}
	return nil
}

// liveAt is the partial-view rule, in its one place: the local table decides
// for the addresses it holds; any other address is dead on a full view and,
// on a partial one, as live as the runtime's cluster directory says — a
// transport query, safe under the execution guarantee.
func (v *view) liveAt(a runtime.Addr) bool {
	return v.local(a) != nil || a != runtime.None && v.s.partial && v.s.rt.Attached(a)
}

// owner returns the t-peer whose ring segment covers id (tps is non-empty).
func (v *view) owner(id idspace.ID) *Peer {
	i := sort.Search(len(v.tps), func(i int) bool { return v.tps[i].ID >= id })
	if i == len(v.tps) {
		i = 0 // wrap: the smallest id owns the arc past the largest
	}
	return v.tps[i]
}

// walk follows p's connect points toward its root and returns the last live
// local peer reached and the edges followed to it. The chain is whole when
// that peer is a t-peer; it ends early on an s-peer whose connect point is
// dead or in another process, and past numPeers edges only a cycle is left.
func (v *view) walk(p *Peer) (end *Peer, depth int) {
	for end = p; end.Role == SPeer && depth <= v.s.numPeers; depth++ {
		next := v.local(end.cp.Addr)
		if next == nil {
			break
		}
		end = next
	}
	return end, depth
}

// census is the totals HealthScore and RingSummary report beside the
// violations and the lengths of the view's slices.
type census struct{ items, pending, suspected, deficit, depthMax int }

func (v *view) census() (c census) {
	c.pending = len(v.s.ops)
	for _, p := range v.live {
		c.items += p.data.len()
		if p.t != nil {
			c.suspected += len(p.t.suspect)
		}
		if p.repl != nil {
			c.deficit += p.repl.deficit
		}
		if _, d := v.walk(p); d > c.depthMax {
			c.depthMax = d
		}
	}
	return c
}

func (v *view) deadRingPtrs() {
	for _, p := range v.tps {
		succ, pred := p.Successor(), p.Predecessor()
		for _, r := range [2]Ref{succ, pred} {
			if t := v.local(r.Addr); t == nil && !v.liveAt(r.Addr) || t != nil && t.Role != TPeer {
				v.report(p.Addr, r.Addr, "succ=%d pred=%d: %d is not a live t-peer (suspected=%v)",
					succ.Addr, pred.Addr, r.Addr, p.t != nil && p.t.suspected(r.Addr))
			}
		}
	}
}

func (v *view) brokenRingLinks() {
	for _, p := range v.tps {
		next := v.local(p.Successor().Addr)
		if next == nil || next.Role != TPeer {
			continue
		}
		if np := next.Predecessor(); np.Addr != p.Addr {
			v.report(p.Addr, next.Addr, "successor %d (id %s) names %d as predecessor, not %d (id %s); joining=%v/%v leaving=%v/%v watched=%v",
				next.Addr, next.ID, np.Addr, p.Addr, p.ID,
				p.joining, next.joining, p.leaving, next.leaving, next.watching(np.Addr))
		}
	}
}

// ringCoverage: a walk that re-enters the ring short of its start leaves no
// t-peer out, but its closing edge is a broken_ring_links violation.
func (v *view) ringCoverage() {
	if len(v.tps) == 0 {
		return
	}
	seen := make(map[*Peer]bool, len(v.tps))
	for cur := v.tps[0]; cur != nil && cur.Role == TPeer && !seen[cur]; cur = v.local(cur.Successor().Addr) {
		seen[cur] = true
	}
	for _, p := range v.tps {
		if !seen[p] {
			v.report(p.Addr, v.tps[0].Addr, "not on the successor walk from %d, which covers %d of %d t-peers (pred=%d succ=%d)",
				v.tps[0].Addr, len(seen), len(v.tps), p.Predecessor().Addr, p.Successor().Addr)
		}
	}
}

func (v *view) orphanSPeers() {
	for _, p := range v.sps {
		if !v.liveAt(p.cp.Addr) {
			v.report(p.Addr, p.cp.Addr, "no live connect point (joined=%v leaving=%v epoch=%d lost %d ticks, tpeer=%d)",
				p.joined, p.leaving, p.joinEpoch, p.cpLostTicks, p.tpeer.Addr)
		}
	}
}

func (v *view) unlistedChildren() {
	for _, p := range v.sps {
		if parent := v.local(p.cp.Addr); parent != nil && parent.childIndex(p.Addr) < 0 {
			v.report(p.Addr, parent.Addr, "connect point %d does not list %d as a child", parent.Addr, p.Addr)
		}
	}
}

func (v *view) rootMismatches() {
	for _, p := range v.sps {
		switch root, depth := v.walk(p); {
		case depth > v.s.numPeers:
			v.report(p.Addr, p.cp.Addr, "connect-point cycle")
		case root.Role == TPeer && p.tpeer.Valid() && root.Addr != p.tpeer.Addr:
			v.report(p.Addr, root.Addr, "cached t-peer is %d but the connect points lead to %d", p.tpeer.Addr, root.Addr)
		}
	}
}

// deltaViolations: s-peers are bounded strictly (acceptChild enforces δ at
// join time); a t-peer may hold 2δ children, because a substitution or crash
// promotion hands it the departing root's children on top of its own — the
// paper's trade: keep the tree connected now, let growth rebalance later.
func (v *view) deltaViolations() {
	delta := v.s.Cfg.Delta
	for _, p := range v.live {
		if p.Role == SPeer && p.Degree() > delta {
			v.report(p.Addr, runtime.None, "s-peer degree %d exceeds delta %d", p.Degree(), delta)
		} else if p.Role == TPeer && len(p.children) > 2*delta {
			v.report(p.Addr, runtime.None, "t-peer has %d children, above the 2*delta=%d inheritance bound", len(p.children), 2*delta)
		}
	}
}

// unownedItems: an item belongs to the segment covering its d_id, and tpeer
// names the root of the holder's s-network (a t-peer's is itself; a
// rejoining s-peer has none to judge against).
// Surrogate copies live in the separate cache map and are exempt.
func (v *view) unownedItems() {
	if len(v.tps) == 0 {
		return
	}
	for _, p := range v.live {
		for _, it := range p.data.all() {
			if own := v.owner(it.DID); p.tpeer.Valid() && own.Addr != p.tpeer.Addr {
				v.report(p.Addr, own.Addr, "item %q (did %s) is stored in s-network %d but t-peer %d (id %s, pred %d) owns its segment; holder segLo=%s id=%s",
					it.Key, it.DID, p.tpeer.Addr, own.Addr, own.ID, own.Predecessor().Addr, p.segLo, p.ID)
			}
		}
	}
}

// stuckOps: a client operation still pending at quiescence.
func (v *view) stuckOps() {
	for _, qid := range v.s.opsOf(nil) {
		o := v.s.ops[qid]
		v.report(o.peer.Addr, runtime.None, "%s of key %q pending (qid %d)", o.kind, o.key, qid)
	}
}

// deadWatchdogs: a watchdog on a crashed neighbor is how the crash gets
// detected, so one that survives to quiescence is a leaked watch.
func (v *view) deadWatchdogs() {
	for _, p := range v.live {
		for i := range p.nbrs {
			// A zero deadline is a retired entry kept for its ack-suppression history.
			if nb := &p.nbrs[i]; nb.due != 0 && !v.liveAt(nb.addr) {
				v.report(p.Addr, nb.addr, "still watches dead peer %d", nb.addr)
			}
		}
	}
}

func (v *view) serverAccounting() {
	sv := v.s.server
	for _, r := range sv.ring {
		if t := v.local(r.Addr); t == nil || t.Role != TPeer {
			v.report(r.Addr, runtime.None, "server registry lists dead t-peer %d", r.Addr)
		}
	}
	actual := make(map[runtime.Addr]int)
	for _, p := range v.sps {
		if p.tpeer.Valid() {
			actual[p.tpeer.Addr]++
		}
	}
	for _, p := range v.tps {
		if i, ok := sv.find(p.Addr); !ok {
			v.report(p.Addr, runtime.None, "live t-peer %d missing from the server registry", p.Addr)
		} else if size := sv.ring[i].size; size != actual[p.Addr] {
			v.report(p.Addr, runtime.None, "server counts %d s-peers under t-peer %d, which counts %d itself; actual %d", size, p.Addr, p.subtreeSize()-1, actual[p.Addr])
		}
	}
	for addr := range sv.deadPending {
		v.report(addr, runtime.None, "crash report for %d still awaits a replacement", addr)
	}
}

// replicaHolders: a peer holds an item once, whichever of its data, owned and
// replica sets name it; only items still in some database are held to the bound.
func (v *view) replicaHolders() {
	want := min(v.s.Cfg.ReplicationK, len(v.tps))
	if want <= 1 {
		return
	}
	holders := make(map[idspace.ID]int)
	for _, p := range v.live {
		for _, it := range p.data.all() {
			holders[it.DID]++
		}
		for _, it := range p.owned().all() {
			if !p.data.has(it.DID) {
				holders[it.DID]++
			}
		}
		for _, e := range p.reps().all() {
			if did := e.it.DID; !p.data.has(did) && !p.owned().has(did) {
				holders[did]++
			}
		}
	}
	for _, p := range v.live {
		for _, it := range p.data.all() {
			if n := holders[it.DID]; n < want {
				v.report(p.Addr, runtime.None, "item %q (%x) has %d holders, want >= %d (k=%d, %d t-peers)",
					it.Key, it.DID, n, want, v.s.Cfg.ReplicationK, len(v.tps))
			}
		}
	}
}

// replicaSums recounts what the write helpers keep running: each peer's
// digest over its owned set, and per owner the count and sum over the
// replicas held for it. Drift is reported at the peer, with the owner as
// the far end.
func (v *view) replicaSums() {
	for _, p := range v.live {
		p.recountReplication(func(owner runtime.Addr, format string, args ...any) {
			v.report(p.Addr, owner, format, args...)
		})
	}
}

// ringState: the ring state goes with the t-role. A t-peer without it has not
// been placed by the server; an s-peer with it was left one by a role change.
func (v *view) ringState() {
	for _, p := range v.live {
		if (p.t != nil) != (p.Role == TPeer) {
			v.report(p.Addr, runtime.None, "%s holds ring state: %v (joined=%v)", p.Role, p.t != nil, p.joined)
		}
	}
}

// recountReplication recomputes one peer's running replication sums from
// the sets and reports each one that differs.
func (p *Peer) recountReplication(drift func(owner runtime.Addr, format string, args ...any)) {
	r := p.repl
	if r == nil {
		return
	}
	var sum uint64
	for _, it := range r.owned.all() {
		sum ^= itemSum(it)
	}
	if sum != r.ownedSum {
		drift(runtime.None, "owned sum %x over %d items, recount %x", r.ownedSum, r.owned.len(), sum)
	}
	recount := make(map[runtime.Addr]repHold)
	for _, e := range r.reps.all() {
		h := recount[e.owner.Addr]
		h.count++
		h.sum ^= itemSum(e.it)
		recount[e.owner.Addr] = h
	}
	for _, h := range r.holds {
		if want, ok := recount[h.owner]; !ok || h.count != want.count || h.sum != want.sum {
			drift(h.owner, "holds %d replicas summing to %x, recount %d summing to %x", h.count, h.sum, want.count, want.sum)
		}
		delete(recount, h.owner)
	}
	for owner, want := range recount {
		drift(owner, "no aggregate over %d held replicas", want.count)
	}
}

// maxReported caps the violations a HealthScore lists; its counts, the
// audit's own result and the Check* errors are never capped.
const maxReported = 32

// check audits the named invariants and joins their violations into an error
// (nil when there are none).
func (s *System) check(names ...string) error {
	var errs []error
	for _, v := range s.audit(names...) {
		errs = append(errs, v)
	}
	return errors.Join(errs...)
}

// CheckInvariants audits every invariant in the table that the system's view
// can decide. It is a quiescence check: call it after the failure detectors,
// the crash arbitration and the stabilization rounds have had time to run.
func (s *System) CheckInvariants() error { return s.check() }

// CheckRing audits the t-network: live, symmetric ring pointers and one
// successor cycle through every t-peer.
func (s *System) CheckRing() error {
	return s.check("dead_ring_ptrs", "broken_ring_links", "ring_coverage")
}

// CheckReplication audits replication (k > 1): every stored item has
// min(k, t-peers) holders, and the running sums that digests are built from
// and compared against match a recount.
func (s *System) CheckReplication() error {
	return s.check("replica_holders", "replica_sums")
}

// CheckTrees audits the s-networks: every s-peer has a live connect point
// that lists it, and reaches the t-peer it caches by following connect points.
func (s *System) CheckTrees() error {
	return s.check("orphan_speers", "unlisted_children", "root_mismatches")
}
