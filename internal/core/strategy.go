package core

import (
	"fmt"
	"slices"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// MaxLookupAlpha bounds the α-parallel probe fan-out of a single lookup.
const MaxLookupAlpha = 8

// Route selects how data operations walk the t-network ring. Join requests
// and finger resolution always take the finger step, as §4.1 assumes; the
// suspect detour applies to data operations under either value.
type Route uint8

const (
	// RouteFinger is the paper's closest-preceding-finger walk (§3.1): the
	// closest preceding finger, the successor when fingers have nothing
	// closer.
	RouteFinger Route = iota
	// RouteSuccessor walks the immediate successor only, no finger
	// acceleration: O(n) hops, but immune to stale finger tables. The
	// paper's NS2 simulation behaves this way — its Table 2 reports ~N/2
	// contacted peers per lookup at p_s = 0 and Fig. 6a calls the t-network
	// step "proportional to the total number of t-peers" — so the
	// experiments regenerating those results select it.
	RouteSuccessor
)

func (r Route) String() string {
	if r == RouteFinger {
		return "finger"
	}
	return "succ"
}

// ParseRoute resolves a CLI routing name.
func ParseRoute(name string) (Route, error) {
	switch name {
	case "", "finger":
		return RouteFinger, nil
	case "succ", "successor":
		return RouteSuccessor, nil
	default:
		return 0, fmt.Errorf("core: unknown routing strategy %q (want finger or succ)", name)
	}
}

// suspected reports whether a is presumed crashed and its repair has not
// landed yet.
func (t *tState) suspected(a runtime.Addr) bool {
	return slices.Contains(t.suspect, a)
}

// unsuspect clears a's suspicion, if raised.
func (t *tState) unsuspect(a runtime.Addr) {
	if i := slices.Index(t.suspect, a); i >= 0 {
		t.suspect = slices.Delete(t.suspect, i, i+1)
	}
}

// fingerStep is one closest-preceding-finger step toward id: the finger
// closest to id from below, the successor when no finger is closer.
func (p *Peer) fingerStep(t *tState, id idspace.ID) Ref {
	if next := p.closestPreceding(t, id); next.Valid() {
		return next
	}
	return t.succ
}

// detour replaces a hop that is suspected dead, and whose repair has not
// landed, by the successor's successor learned from stabilization, instead
// of forwarding into the crash.
func (p *Peer) detour(t *tState, next Ref) Ref {
	if t.suspected(next.Addr) && t.succ2.Valid() && t.succ2.Addr != p.Addr && !t.suspected(t.succ2.Addr) {
		return t.succ2
	}
	return next
}

// nextHop picks the single ring hop for a data operation targeting id under
// Cfg.Route, or an invalid/self Ref when there is nowhere to forward. This is
// the hot path: it must not allocate.
func (p *Peer) nextHop(t *tState, id idspace.ID) Ref {
	if p.sys.Cfg.Route == RouteSuccessor {
		return p.detour(t, t.succ)
	}
	return p.detour(t, p.fingerStep(t, id))
}

// nextHops appends distinct live hop candidates for id to dst, best first,
// until len(dst) == max, and returns dst: nextHop, then (finger routing only)
// the remaining fingers strictly between this peer and id scanned from above,
// then the successor chain — so α probes enter the ring on genuinely diverse
// paths. Under RouteSuccessor at most succ and succ2 diverge.
func (p *Peer) nextHops(t *tState, id idspace.ID, max int, dst []Ref) []Ref {
	first := p.nextHop(t, id)
	if !first.Valid() || first.Addr == p.Addr {
		return dst
	}
	dst = append(dst, first)
	if p.sys.Cfg.Route == RouteFinger {
		fs := t.fingers.entries()
		for i := len(fs) - 1; i >= 0 && len(dst) < max; i-- {
			if f := fs[i]; idspace.StrictBetween(p.ID, f.ID, id) {
				dst = p.appendHop(t, dst, f)
			}
		}
	}
	for _, c := range [2]Ref{t.succ, t.succ2} {
		if len(dst) >= max {
			break
		}
		dst = p.appendHop(t, dst, c)
	}
	return dst
}

// appendHop appends c to the candidate list unless it is invalid, this peer,
// suspected or already listed. The list is at most MaxLookupAlpha long, so a
// linear scan wins.
func (p *Peer) appendHop(t *tState, dst []Ref, c Ref) []Ref {
	if !c.Valid() || c.Addr == p.Addr || t.suspected(c.Addr) {
		return dst
	}
	for i := range dst {
		if dst[i].Addr == c.Addr {
			return dst
		}
	}
	return append(dst, c)
}
