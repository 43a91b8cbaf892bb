package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// Server is the well-known bootstrap server (§3.2): it hands joining peers a
// role, an id and an entry point, assigns s-peers to s-networks, manages the
// landmark list, and arbitrates the replacement of crashed t-peers.
//
// The server holds soft state only — a registry mirroring what peers report —
// and is never on the data path, so it is not the BitTorrent-style single
// point of failure the paper distinguishes itself from.
type Server struct {
	sys *System

	// ring mirrors the live t-network, each t-peer with the size of its
	// s-network, ordered by (id, addr).
	ring []member
	// ringMember is ring's only index: the id each registered address sits
	// under, so finding an entry is one binary search, not a registry scan.
	ringMember map[runtime.Addr]idspace.ID
	// detachDirty flips whenever a peer detaches (or a registration
	// arrives from an already-dead peer) and arms the next sweepDead scan.
	// Without the gate the sweep walks the whole registry on every size
	// sync even when nobody has crashed since the last one.
	detachDirty bool
	// tCount/sCount track how many role assignments were made.
	tCount, sCount int

	// landmarks are the physical hosts acting as binning landmarks.
	landmarks []int
	// clusterRR advances round-robin assignment within a landmark bin.
	clusterRR map[string]int

	// replaced remembers crash substitutions so late reporters learn the
	// new t-peer instead of being promoted twice.
	replaced map[runtime.Addr]Ref
	// deadPending tracks crashed t-peers whose s-network is expected to
	// drive the replacement; if none arrives before the fallback fires
	// the server force-patches the ring.
	deadPending map[runtime.Addr]bool

	// firstIssued flips when the very first t-peer role is handed out; it
	// closes the window in which a second joiner could race the first
	// peer's ringRegister and be crowned a second "first" ring. firstAddr
	// remembers who got that role so a lost response can be re-issued and a
	// crashed first joiner does not park every later join forever.
	firstIssued bool
	firstAddr   runtime.Addr
}

// Server-bound registration messages.
type (
	ringRegister   struct{ Self Ref }
	ringUnregister struct{ Self Ref }
	ringReplace    struct{ Old, New Ref }
	sRegister      struct{ TPeer Ref }
	sUnregister    struct{ TPeer Ref }
	// sSizeSync carries a t-peer's authoritative count of its s-network
	// (piggybacked on its HELLO tick). The incremental sRegister/sUnregister
	// stream drifts under crashes — a parent that dies with its child causes
	// one decrement for two losses, a subtree that rejoins elsewhere
	// increments the new network but never decrements the old — so the
	// absolute figure periodically overwrites the counter.
	sSizeSync struct {
		Self Ref
		Size int
	}
)

func newServer(sys *System, host int) *Server {
	sv := &Server{
		sys:         sys,
		ringMember:  make(map[runtime.Addr]idspace.ID),
		clusterRR:   make(map[string]int),
		replaced:    make(map[runtime.Addr]Ref),
		deadPending: make(map[runtime.Addr]bool),
		firstAddr:   runtime.None,
	}
	sv.pickLandmarks()
	sys.rt.Attach(sv.sys.serverAddr, runtime.Endpoint{Host: host, Capacity: 10}, runtime.HandlerFunc(sv.recv))
	return sv
}

// pickLandmarks chooses evenly spaced stub hosts as landmarks ("the
// landmarks are predetermined so that they are uniformly distributed around
// the network").
func (sv *Server) pickLandmarks() {
	n := sv.sys.Cfg.Landmarks
	var stubs []int
	if pl := sv.sys.rt.Placement(); pl != nil {
		stubs = pl.StubHosts()
	}
	if len(stubs) == 0 {
		stubs = []int{0}
	}
	if n > len(stubs) {
		n = len(stubs)
	}
	sv.landmarks = make([]int, n)
	for i := 0; i < n; i++ {
		sv.landmarks[i] = stubs[i*len(stubs)/n]
	}
}

// Landmarks returns the landmark hosts.
func (sv *Server) Landmarks() []int { return append([]int(nil), sv.landmarks...) }

func (sv *Server) recv(from runtime.Addr, msg any) {
	switch m := msg.(type) {
	case serverJoinReq:
		sv.handleJoin(from, m)
	case ringRegister:
		sv.ringInsert(m.Self)
		delete(sv.replaced, m.Self.Addr)
	case ringUnregister:
		sv.ringRemove(m.Self.Addr)
	case ringReplace:
		sv.ringSubstitute(m.Old, m.New)
		sv.replaced[m.Old.Addr] = m.New
	case sRegister:
		sv.resize(m.TPeer.Addr, +1)
	case sUnregister:
		sv.resize(m.TPeer.Addr, -1)
	case sSizeSync:
		sv.handleSizeSync(m)
	case replaceReq:
		sv.handleReplace(from, m)
	case ringLocate:
		sv.handleRingLocate(m)
	case ringDeadReq:
		sv.handleRingDead(m)
	default:
		panic(fmt.Sprintf("core: server received unknown message %T", msg))
	}
}

func (sv *Server) send(to runtime.Addr, msg any) {
	sv.sys.rt.Send(sv.sys.serverAddr, to, messageBytes, msg)
}

// handleSizeSync overwrites the incremental s-network counter with the
// t-peer's own count. The sync doubles as a registry keep-alive: a live
// t-peer that is missing from the ring registry (its ringRegister was lost,
// or a false crash alarm evicted it) is re-registered and re-anchored, while
// dead senders are ignored so a late sync cannot resurrect them.
func (sv *Server) handleSizeSync(m sSizeSync) {
	sv.sweepDead()
	if _, ok := sv.ringMember[m.Self.Addr]; !ok {
		if !sv.sys.rt.Attached(m.Self.Addr) {
			return
		}
		sv.handleRingLocate(ringLocate{Self: m.Self})
	}
	sv.setSize(m.Self.Addr, m.Size)
}

// sweepDead notices registered t-peers that crashed without a surviving
// witness — both ring neighbors died in the same burst, or every crash
// report was lost — and starts the normal repair for each. Piggybacked on
// the periodic size sync, so the registry converges while at least one
// t-peer is alive, without a dedicated server timer.
func (sv *Server) sweepDead() {
	// Scan only when something detached since the last sweep. Skipped
	// sweeps change nothing: noteDead is idempotent (replaced/deadPending
	// guard every path after the first handling), so re-noticing the same
	// corpses on every sync round did only wasted work.
	if !sv.detachDirty {
		return
	}
	sv.detachDirty = false
	var dead []Ref
	for _, e := range sv.ring {
		if !sv.sys.rt.Attached(e.Addr) {
			dead = append(dead, e.Ref)
		}
	}
	for _, r := range dead {
		sv.noteDead(r)
	}
}

// noteDead schedules repair for a registered, confirmed-dead t-peer:
// immediate patch when its s-network is empty, one grace window otherwise so
// the s-peers can drive replacement arbitration (replaceReq) first.
func (sv *Server) noteDead(crashed Ref) {
	if _, done := sv.replaced[crashed.Addr]; done {
		return
	}
	if sv.sys.rt.Attached(crashed.Addr) {
		return
	}
	if _, ok := sv.ringMember[crashed.Addr]; !ok {
		return
	}
	if sv.snetSize(crashed.Addr) > 0 {
		if !sv.deadPending[crashed.Addr] {
			sv.deadPending[crashed.Addr] = true
			c := crashed
			sv.sys.rt.Schedule(2*sv.sys.Cfg.HelloTimeout, func() {
				delete(sv.deadPending, c.Addr)
				if _, done := sv.replaced[c.Addr]; done {
					return
				}
				if _, ok := sv.ringMember[c.Addr]; ok {
					sv.patchAround(c)
				}
			})
		}
		return
	}
	sv.patchAround(crashed)
}

// liveReplacement follows the replacement chain from a crashed t-peer until
// it reaches one that is still attached: the recorded replacement may itself
// have died since, and steering a reporter at a corpse would cost a full
// detection cycle per dead link. Falls back to the registry's current owner
// of the crashed peer's segment.
func (sv *Server) liveReplacement(crashed Ref) Ref {
	rep, ok := sv.replaced[crashed.Addr]
	for hops := 0; ok && hops < len(sv.replaced)+1; hops++ {
		if sv.sys.rt.Attached(rep.Addr) {
			return rep
		}
		next, chained := sv.replaced[rep.Addr]
		if !chained || next.Addr == rep.Addr {
			break
		}
		rep = next
	}
	return sv.ringSuccessor(crashed.ID)
}

// handleJoin decides role, id and entry point for a joining peer.
func (sv *Server) handleJoin(from runtime.Addr, m serverJoinReq) {
	if len(sv.ring) == 0 && sv.firstIssued {
		if sv.firstAddr != runtime.None && !sv.sys.rt.Attached(sv.firstAddr) {
			// The chosen first t-peer crashed before registering; unwind
			// the reservation and let this joiner bootstrap the ring.
			sv.firstIssued = false
			sv.firstAddr = runtime.None
		} else if from == sv.firstAddr {
			// The first joiner is retrying — its response was lost. Re-issue
			// the same role instead of parking it behind its own
			// registration.
			sv.send(from, serverJoinResp{Role: TPeer, ID: sv.generateID(), First: true})
			return
		} else {
			// The first t-peer was created but its registration is still in
			// flight; park this join briefly instead of minting a second
			// disconnected ring.
			sv.sys.rt.Schedule(20*runtime.Millisecond, func() { sv.handleJoin(from, m) })
			return
		}
	}
	role := sv.decideRole(m)
	resp := serverJoinResp{Role: role}
	switch role {
	case TPeer:
		sv.tCount++
		resp.ID = sv.generateID()
		if !sv.firstIssued {
			sv.firstIssued = true
			sv.firstAddr = from
			resp.First = true
		} else {
			// An arbitrary existing t-peer is the entry point.
			resp.Entry = sv.ring[sv.sys.rt.Rand().Intn(len(sv.ring))].Ref
		}
	case SPeer:
		entry, ok := sv.assignSNetwork(m)
		if !ok {
			// No t-network yet: promote to first t-peer instead.
			sv.tCount++
			sv.firstIssued = true
			sv.firstAddr = from
			resp.Role = TPeer
			resp.ID = sv.generateID()
			resp.First = true
			break
		}
		sv.sCount++
		resp.Entry = entry
	}
	sv.send(from, resp)
}

// decideRole implements the role policy. Without heterogeneity the server
// keeps the realized t:s ratio as close to (1-Ps):Ps as arrival order
// allows. With heterogeneity it additionally requires t-peers to come from
// the highest capacity class available, relaxing the bar only when the
// deficit grows (§5.1: "we assign peers with higher link capacities as
// t-peers").
func (sv *Server) decideRole(m serverJoinReq) Role {
	if m.ForceRole == int8(TPeer) {
		return TPeer
	}
	if m.ForceRole == int8(SPeer) && len(sv.ring) > 0 {
		return SPeer
	}
	total := sv.tCount + sv.sCount + 1
	desiredT := int(math.Round((1 - sv.sys.Cfg.Ps) * float64(total)))
	if desiredT < 1 {
		desiredT = 1
	}
	deficit := desiredT - sv.tCount
	if deficit <= 0 {
		return SPeer
	}
	if !sv.sys.Cfg.Heterogeneity {
		return TPeer
	}
	switch {
	case m.Capacity >= 10:
		return TPeer
	case m.Capacity >= 3 && deficit > 3:
		return TPeer
	case deficit > 20:
		return TPeer
	default:
		return SPeer
	}
}

// generateID draws a uniform random p_id. Conflicts are possible and are
// resolved at the insertion point with the midpoint rule.
func (sv *Server) generateID() idspace.ID {
	return idspace.ID(sv.sys.rt.Rand().Uint64())
}

// assignSNetwork picks the s-network for a joining s-peer: by landmark bin
// when the request carries a coordinate (Landmarks > 0, §5.2), else the
// smallest.
func (sv *Server) assignSNetwork(m serverJoinReq) (Ref, bool) {
	if len(sv.ring) == 0 {
		return NilRef, false
	}
	if m.Coord != "" {
		return sv.assignByCluster(m.Coord), true
	}
	return sv.smallestSNet(), true
}

// smallestSNet returns the t-peer with the fewest s-peers, the first in ring
// order on a tie (§3.2.2: "the server is responsible for assigning a joining
// s-peer to some s-network with a smaller size").
func (sv *Server) smallestSNet() Ref {
	best := 0
	for i, e := range sv.ring {
		if e.size < sv.ring[best].size {
			best = i
		}
	}
	return sv.ring[best].Ref
}

// assignByCluster maps a landmark bin to an s-network (§5.2). Peers in the
// same bin land in the same s-network unless that network has grown well
// past the average, in which case the bin advances round-robin to keep
// sizes balanced.
func (sv *Server) assignByCluster(coord string) Ref {
	base := int(idspace.HashBytes([]byte(coord)) % idspace.ID(len(sv.ring)))
	idx := (base + sv.clusterRR[coord]) % len(sv.ring)
	total := 0
	for _, e := range sv.ring {
		total += e.size
	}
	avg := float64(total) / float64(len(sv.ring))
	if float64(sv.ring[idx].size) > avg+float64(len(sv.ring)) {
		sv.clusterRR[coord]++
		idx = (base + sv.clusterRR[coord]) % len(sv.ring)
	}
	return sv.ring[idx].Ref
}

// --- ring registry -----------------------------------------------------------

// member is one registry entry: a registered t-peer and the number of s-peers
// in its s-network.
type member struct {
	Ref
	size int
}

// search returns the index of the first entry not below (id, addr). (id, addr)
// is a strict total order, as addresses are unique.
func (sv *Server) search(id idspace.ID, addr runtime.Addr) int {
	return sort.Search(len(sv.ring), func(i int) bool {
		e := sv.ring[i]
		return e.ID > id || e.ID == id && e.Addr >= addr
	})
}

// find returns the index of addr's entry.
func (sv *Server) find(addr runtime.Addr) (int, bool) {
	id, ok := sv.ringMember[addr]
	if !ok {
		return -1, false
	}
	return sv.search(id, addr), true
}

// snetSize is the registered size of addr's s-network, 0 for an address
// that is not registered.
func (sv *Server) snetSize(addr runtime.Addr) int {
	if i, ok := sv.find(addr); ok {
		return sv.ring[i].size
	}
	return 0
}

// setSize records the size of a registered t-peer's s-network.
func (sv *Server) setSize(addr runtime.Addr, size int) {
	if i, ok := sv.find(addr); ok {
		sv.ring[i].size = size
	}
}

// resize moves a registered t-peer's s-network size by delta, never below 0.
func (sv *Server) resize(addr runtime.Addr, delta int) {
	if i, ok := sv.find(addr); ok {
		sv.ring[i].size = max(sv.ring[i].size+delta, 0)
	}
}

// drop removes addr's entry, s-network size included, and returns that size.
func (sv *Server) drop(addr runtime.Addr) (size int, ok bool) {
	i, ok := sv.find(addr)
	if !ok {
		return 0, false
	}
	size = sv.ring[i].size
	sv.ring = slices.Delete(sv.ring, i, i+1)
	delete(sv.ringMember, addr)
	return size, true
}

// ringInsert registers a t-peer. One that re-registers under a new id moves
// to its new place and keeps its s-network size.
func (sv *Server) ringInsert(r Ref) {
	size := 0
	if id, ok := sv.ringMember[r.Addr]; ok {
		if id == r.ID {
			return
		}
		size, _ = sv.drop(r.Addr)
	} else if !sv.sys.rt.Attached(r.Addr) {
		// A registration from a peer that crashed before it arrived: arm the
		// sweep, or the corpse would sit in the registry with no surviving
		// witness to report it.
		sv.detachDirty = true
	}
	sv.ring = slices.Insert(sv.ring, sv.search(r.ID, r.Addr), member{Ref: r, size: size})
	sv.ringMember[r.Addr] = r.ID
}

func (sv *Server) ringRemove(addr runtime.Addr) {
	if _, ok := sv.drop(addr); ok && len(sv.ring) == 0 {
		// The t-network died out entirely; the next t-join bootstraps a
		// fresh ring.
		sv.firstIssued = false
		sv.firstAddr = runtime.None
	}
}

// ringSubstitute hands old's entry, s-network size included, to new.
func (sv *Server) ringSubstitute(old, new Ref) {
	size, _ := sv.drop(old.Addr)
	sv.ringInsert(new)
	sv.setSize(new.Addr, size)
}

// ringSuccessor returns the registered t-peer owning the given id: the first
// at or after it, wrapping around.
func (sv *Server) ringSuccessor(id idspace.ID) Ref {
	if len(sv.ring) == 0 {
		return NilRef
	}
	return sv.ring[sv.search(id, math.MinInt)%len(sv.ring)].Ref
}

// ringPredecessor returns the registered t-peer preceding the given id: the
// last before it, wrapping around.
func (sv *Server) ringPredecessor(id idspace.ID) Ref {
	n := len(sv.ring)
	if n == 0 {
		return NilRef
	}
	return sv.ring[(sv.search(id, math.MinInt)-1+n)%n].Ref
}

// ringNeighbors returns the registered predecessor and successor of the
// entry with the given address.
func (sv *Server) ringNeighbors(addr runtime.Addr) (pred, succ Ref, ok bool) {
	i, ok := sv.find(addr)
	if !ok {
		return NilRef, NilRef, false
	}
	n := len(sv.ring)
	return sv.ring[(i-1+n)%n].Ref, sv.ring[(i+1)%n].Ref, true
}

// handleRingLocate re-anchors a t-peer that lost its ring pointers: it is
// (re-)registered and told its registry neighbors unconditionally; the ring
// stabilization protocol then reconciles the eager pointers around it.
func (sv *Server) handleRingLocate(m ringLocate) {
	sv.ringInsert(m.Self)
	delete(sv.replaced, m.Self.Addr)
	pred, succ, ok := sv.ringNeighbors(m.Self.Addr)
	if !ok {
		return
	}
	sv.send(m.Self.Addr, pointerUpdate{Pred: pred, Succ: succ})
	// Tell the registry neighbors too, conditionally: only a neighbor
	// whose pointer is missing adopts it (IfCurrent of None matches the
	// invalid pointer case in handlePointerUpdate via the !Valid branch).
	if pred.Addr != m.Self.Addr {
		sv.send(pred.Addr, pointerUpdate{Succ: m.Self, Pred: NilRef, IfCurrent: Ref{Addr: -2}})
	}
	if succ.Addr != m.Self.Addr && succ.Addr != pred.Addr {
		sv.send(succ.Addr, pointerUpdate{Pred: m.Self, Succ: NilRef, IfCurrent: Ref{Addr: -2}})
	}
}

// --- crash arbitration --------------------------------------------------------

// handleReplace arbitrates the replacement of a crashed t-peer. The paper
// lets disconnected s-peers "compete to replace the crashed t-peer by
// sending messages to the server"; the server picks one (the first reporter
// here — any deterministic rule works) and points the rest at the winner.
func (sv *Server) handleReplace(from runtime.Addr, m replaceReq) {
	if _, done := sv.replaced[m.Crashed.Addr]; done {
		rep := sv.liveReplacement(m.Crashed)
		if rep.Addr == from {
			// The recorded replacement itself is reporting the crash: its
			// takeover notice (promoteMsg from a leaving t-peer, or an
			// earlier replaceResp) was lost, so it is still an s-peer while
			// the registry already lists it in the ring. Crown it with the
			// position it was assigned instead of steering it at itself.
			if pred, succ, ok := sv.ringNeighbors(rep.Addr); ok {
				if pred.Addr == rep.Addr {
					pred = rep
				}
				if succ.Addr == rep.Addr {
					succ = rep
				}
				sv.send(from, replaceResp{Promote: true, ID: rep.ID, Pred: pred, Succ: succ})
				return
			}
		}
		sv.send(from, replaceResp{Promote: false, NewT: rep})
		return
	}
	if sv.sys.rt.Attached(m.Crashed.Addr) {
		// False alarm: the reported t-peer is alive (its HELLOs were lost).
		// Promoting a replacement for a living peer would fork the ring, so
		// steer the reporter back under its own t-peer instead.
		sv.send(from, replaceResp{Promote: false, NewT: m.Crashed})
		return
	}
	pred, succ, registered := sv.ringNeighbors(m.Crashed.Addr)
	if !registered {
		// Unknown crash report: steer the reporter to the segment owner.
		sv.send(from, replaceResp{Promote: false, NewT: sv.ringSuccessor(m.Crashed.ID)})
		return
	}
	winner := m.Self
	newRef := Ref{ID: m.Crashed.ID, Addr: winner.Addr}
	sv.ringSubstitute(m.Crashed, newRef)
	sv.replaced[m.Crashed.Addr] = newRef
	sv.resize(winner.Addr, -1) // the winner is no longer an s-peer
	sv.sys.stats.Promotions++

	if pred.Addr == m.Crashed.Addr {
		pred = newRef // singleton ring
	}
	if succ.Addr == m.Crashed.Addr {
		succ = newRef
	}
	sv.send(from, replaceResp{Promote: true, ID: m.Crashed.ID, Pred: pred, Succ: succ})
	// Patch the ring neighbors' pointers directly; the promoted peer also
	// circulates a finger substitution when it takes over.
	if pred.Addr != winner.Addr {
		sv.send(pred.Addr, pointerUpdate{Succ: newRef, Pred: NilRef, IfCurrent: m.Crashed})
	}
	if succ.Addr != winner.Addr {
		sv.send(succ.Addr, pointerUpdate{Pred: newRef, Succ: NilRef, IfCurrent: m.Crashed})
	}
}

// handleRingDead handles a crashed-t-peer report from a ring neighbor. If
// the registry says the dead peer had an empty s-network the ring is patched
// around it immediately; otherwise the s-network is given one failure-
// detection window to drive the replacement (replaceReq) before the server
// force-patches anyway. Either way the reporter gets a targeted ringRepair
// so its own stale pointer heals.
func (sv *Server) handleRingDead(m ringDeadReq) {
	if _, done := sv.replaced[m.Crashed.Addr]; done {
		rep := sv.liveReplacement(m.Crashed)
		sv.send(m.Self.Addr, ringRepair{Crashed: m.Crashed, Pred: rep, Succ: rep})
		return
	}
	if sv.sys.rt.Attached(m.Crashed.Addr) {
		// False alarm — the reported peer is alive. Ignore the report: the
		// reporter keeps watching and its suspicion clears when the next
		// HELLO gets through; evicting a live peer would split the ring.
		return
	}
	if _, _, registered := sv.ringNeighbors(m.Crashed.Addr); !registered {
		sv.send(m.Self.Addr, ringRepair{
			Crashed: m.Crashed,
			Pred:    sv.ringPredecessor(m.Crashed.ID),
			Succ:    sv.ringSuccessor(m.Crashed.ID),
		})
		return
	}
	// The s-network, if any, should drive replacement through replaceReq;
	// when it does not (the size accounting drifted, or the children
	// crashed too), noteDead force-patches after one detection window.
	sv.noteDead(m.Crashed)
}

// patchAround removes a dead t-peer from the registry and splices its ring
// neighbors together, folding its segment into the successor. A peer that is
// still attached is never patched around: force-patching a live peer on a
// false alarm would split the ring permanently.
func (sv *Server) patchAround(crashed Ref) {
	if sv.sys.rt.Attached(crashed.Addr) {
		return
	}
	pred, succ, registered := sv.ringNeighbors(crashed.Addr)
	if !registered {
		return
	}
	sv.ringRemove(crashed.Addr)
	sv.replaced[crashed.Addr] = succ
	if pred.Addr != crashed.Addr && pred.Addr != succ.Addr {
		sv.send(pred.Addr, pointerUpdate{Succ: succ, Pred: NilRef, IfCurrent: crashed})
		sv.send(succ.Addr, pointerUpdate{Pred: pred, Succ: NilRef, IfCurrent: crashed})
	} else if pred.Addr == succ.Addr && pred.Addr != crashed.Addr {
		// Two-node ring collapsing to one.
		sv.send(pred.Addr, pointerUpdate{Pred: pred, Succ: pred, IfCurrent: crashed})
	}
	// Circulate a finger substitution so stale fingers route to the
	// successor, which now owns the dead peer's segment.
	if succ.Addr != crashed.Addr {
		sv.send(succ.Addr, substituteMsg{Old: crashed, New: succ, Origin: succ.Addr})
	}
}
