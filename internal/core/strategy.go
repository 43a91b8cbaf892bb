package core

import (
	"fmt"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// MaxLookupAlpha bounds the α-parallel probe fan-out of a single lookup.
const MaxLookupAlpha = 8

// RouteStrategy is the seam between segment routing and the policy that
// picks the next ring hop(s) for a target id. The t-network's data plane
// (forwardTowardSegment, the α-parallel probe fan-out) asks the strategy for
// candidates; everything else — suspect bookkeeping, stats, the actual
// sends — stays in the protocol code, so a strategy is a pure hop-selection
// function over the peer's routing state.
//
// Strategies must be stateless (or share-nothing) values: one instance
// serves every peer of a System, including concurrently under the live
// runtimes.
type RouteStrategy interface {
	// Name identifies the strategy in CLI flags and docs.
	Name() string
	// NextHop picks the single best ring hop for a request targeting id,
	// or an invalid/self Ref when there is nowhere to forward. This is the
	// hot path: it must not allocate.
	NextHop(p *Peer, id idspace.ID) Ref
	// NextHops appends distinct live hop candidates for id to dst, best
	// first, until len(dst) == max, and returns dst. Used by the
	// α-parallel probe fan-out; only called with max > 1.
	NextHops(p *Peer, id idspace.ID, max int, dst []Ref) []Ref
}

// FingerWalk is the default routing: the closest preceding finger, the
// successor when fingers have nothing closer, with the suspect/succ2 detour
// when the chosen hop is presumed crashed.
type FingerWalk struct{}

// Name implements RouteStrategy.
func (FingerWalk) Name() string { return "finger" }

// NextHop implements RouteStrategy.
func (FingerWalk) NextHop(p *Peer, id idspace.ID) Ref {
	next := p.closestPreceding(id)
	if !next.Valid() || next.Addr == p.Addr {
		next = p.succ
	}
	return p.detour(next)
}

// detour replaces a hop that is suspected dead, and whose repair has not
// landed, by the successor's successor learned from stabilization, instead
// of forwarding into the crash.
func (p *Peer) detour(next Ref) Ref {
	if len(p.suspect) != 0 && p.suspect[next.Addr] &&
		p.succ2.Valid() && p.succ2.Addr != p.Addr && !p.suspect[p.succ2.Addr] {
		return p.succ2
	}
	return next
}

// NextHops implements RouteStrategy: the best hop first, then the remaining
// preceding fingers scanned from above, then the successor chain — every
// candidate distinct, live (not suspect) and strictly between this peer and
// the target, so α probes enter the ring on genuinely diverse paths.
func (s FingerWalk) NextHops(p *Peer, id idspace.ID, max int, dst []Ref) []Ref {
	first := s.NextHop(p, id)
	if !first.Valid() || first.Addr == p.Addr {
		return dst
	}
	dst = append(dst, first)
	for i := len(p.finger) - 1; i >= 0 && len(dst) < max; i-- {
		f := p.finger[i]
		if !f.Valid() || f.Addr == p.Addr || !idspace.StrictBetween(p.ID, f.ID, id) {
			continue
		}
		if len(p.suspect) != 0 && p.suspect[f.Addr] {
			continue
		}
		if hopsContain(dst, f.Addr) {
			continue
		}
		dst = append(dst, f)
	}
	for _, c := range [2]Ref{p.succ, p.succ2} {
		if len(dst) >= max {
			break
		}
		if !c.Valid() || c.Addr == p.Addr || hopsContain(dst, c.Addr) {
			continue
		}
		if len(p.suspect) != 0 && p.suspect[c.Addr] {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// SuccessorWalk routes every data operation along the immediate successor
// only, no finger acceleration: O(n) hops, but immune to stale finger tables.
// The paper's NS2 simulation behaves this way — its Table 2 reports ~N/2
// contacted peers per lookup at p_s = 0 and Fig. 6a calls the t-network step
// "proportional to the total number of t-peers" — so the experiments
// regenerating those results select it to match the paper's shape. Join
// requests always use fingers, as §4.1 assumes.
type SuccessorWalk struct{}

// Name implements RouteStrategy.
func (SuccessorWalk) Name() string { return "succ" }

// NextHop implements RouteStrategy.
func (SuccessorWalk) NextHop(p *Peer, _ idspace.ID) Ref { return p.detour(p.succ) }

// NextHops implements RouteStrategy: the successor chain is the only path,
// so at most succ and succ2 diverge.
func (s SuccessorWalk) NextHops(p *Peer, id idspace.ID, max int, dst []Ref) []Ref {
	first := s.NextHop(p, id)
	if !first.Valid() || first.Addr == p.Addr {
		return dst
	}
	dst = append(dst, first)
	if len(dst) < max && p.succ2.Valid() && p.succ2.Addr != p.Addr && !hopsContain(dst, p.succ2.Addr) {
		if len(p.suspect) == 0 || !p.suspect[p.succ2.Addr] {
			dst = append(dst, p.succ2)
		}
	}
	return dst
}

// hopsContain reports whether the candidate list already names the address.
// The list is at most MaxLookupAlpha long, so a linear scan wins.
func hopsContain(hops []Ref, a runtime.Addr) bool {
	for i := range hops {
		if hops[i].Addr == a {
			return true
		}
	}
	return false
}

// StrategyByName resolves a CLI strategy name.
func StrategyByName(name string) (RouteStrategy, error) {
	switch name {
	case "", "finger":
		return FingerWalk{}, nil
	case "succ", "successor":
		return SuccessorWalk{}, nil
	default:
		return nil, fmt.Errorf("core: unknown routing strategy %q (want finger or succ)", name)
	}
}
