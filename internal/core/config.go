// Package core implements the paper's contribution: a hybrid peer-to-peer
// system composed of a structured ring of t-peers (the t-network) with one
// unstructured, degree-bounded tree of s-peers (an s-network) attached to
// every t-peer.
//
// The package contains the full protocol suite from sections 3-5 of the
// paper: t-peer join/leave with the concurrency triangles and
// substitution-on-leave, s-peer join via random-branch walks, HELLO/ack
// failure detection with suppress timers, data insertion under both placement
// schemes, two-tier lookup (local flood, then t-network routing, then remote
// flood), and four of the five enhancements (link heterogeneity, topology
// awareness, bypass links, and BitTorrent-style tracker s-networks).
package core

import (
	"fmt"

	"repro/internal/runtime"
)

// Role distinguishes the two peer kinds.
type Role uint8

// Peer roles.
const (
	// TPeer is a member of the structured core ring.
	TPeer Role = iota
	// SPeer is a member of an unstructured stub network.
	SPeer
)

func (r Role) String() string {
	if r == TPeer {
		return "t-peer"
	}
	return "s-peer"
}

// Placement selects the data placement scheme from section 3.4.
type Placement uint8

const (
	// PlaceAtTPeer is the first scheme: remotely generated data is stored
	// at the t-peer that owns the id segment. Simple, but hot-spots the
	// t-peers (Fig. 4a-c).
	PlaceAtTPeer Placement = iota
	// PlaceSpread is the improved scheme: the owning t-peer forwards the
	// insertion to a random directly connected peer (or keeps it), and
	// the chosen peer repeats the random step, spreading load across the
	// s-network (Fig. 4d-f).
	PlaceSpread
)

func (p Placement) String() string {
	if p == PlaceAtTPeer {
		return "t-peer"
	}
	return "spread"
}

// Assignment selects how the server maps joining s-peers to s-networks.
type Assignment uint8

const (
	// AssignSmallest picks the s-network with the fewest s-peers,
	// distributing the load evenly (the default in §3.2.2).
	AssignSmallest Assignment = iota
	// AssignRandom picks uniformly at random.
	AssignRandom
	// AssignCluster uses landmark binning to co-locate physically close
	// peers in the same s-network (§5.2): joining peers report a landmark
	// coordinate and Config.Landmarks sets the number of landmarks.
	AssignCluster
)

// Config carries every tunable of the hybrid system. Build one from
// DefaultConfig: NewSystem uses every field as given and Validate refuses a
// zero that has no meaning (a zero Config is invalid).
type Config struct {
	// Ps is the target proportion of s-peers (the paper's central knob).
	Ps float64
	// Delta is the s-network degree constraint δ.
	Delta int
	// TTL is the default flood radius inside an s-network.
	TTL int
	// Placement selects the data placement scheme.
	Placement Placement
	// Assignment selects s-network assignment for joining s-peers.
	Assignment Assignment

	// Heterogeneity makes the server rank peers by link capacity and
	// assign the fastest as t-peers (§5.1), and makes connect points
	// check link usage before accepting a child.
	Heterogeneity bool

	// Landmarks is the number of landmark peers AssignCluster bins by.
	Landmarks int

	// Bypass enables bypass links (§5.4).
	Bypass bool

	// TrackerMode turns every s-network into a BitTorrent-style tracker
	// network (§5.5): the t-peer indexes its s-network's content and no
	// flooding happens.
	TrackerMode bool

	// Caching implements the paper's future-work scheme (cache.go): a peer
	// that serves an item cacheHotThreshold times within cacheWindow pushes
	// copies to random tree neighbors (surrogates), which answer lookups and
	// expire after cacheTTL of idleness.
	Caching bool

	// HelloEvery is the heartbeat period; HelloTimeout the failure
	// detection timeout; SuppressTimeout gates acknowledgment messages.
	HelloEvery      runtime.Time
	HelloTimeout    runtime.Time
	SuppressTimeout runtime.Time

	// LookupTimeout bounds lookup and store operations.
	LookupTimeout runtime.Time
	// JoinTimeout bounds a join before the peer retries through the
	// server.
	JoinTimeout runtime.Time

	// FingerRefreshEvery is the period of the t-network finger refresh.
	FingerRefreshEvery runtime.Time

	// ReplicationK is the replication factor: every stored item is kept on
	// its owning t-peer plus up to K−1 live ring successors, so a crash
	// cannot lose the only copy. 1 (the default) disables replication
	// entirely — no replica messages, no replica state, behavior identical
	// to the pre-replication protocol.
	ReplicationK int

	// LookupAlpha is the number of parallel ring probes a remote lookup fans
	// out, Kademlia-style: the origin (or, for s-peer origins, the first
	// t-peer on the climb) forwards the request toward the owning segment
	// along up to α distinct next hops; the first success wins and late
	// replies only decrement the outstanding-probe count. 1 (the default) is
	// the paper's single sequential probe, byte-identical to the pre-seam
	// protocol. Bounded by MaxLookupAlpha.
	LookupAlpha int

	// Route selects ring routing for data operations; the zero value is
	// RouteFinger, the paper's closest-preceding-finger walk.
	Route Route
}

// DefaultConfig returns the parameter set used by the paper-scale
// experiments: δ = 3 (as in §6), TTL = 4, scheme-2 placement.
func DefaultConfig() Config {
	return Config{
		Ps:                 0.5,
		Delta:              3,
		TTL:                4,
		Placement:          PlaceSpread,
		Assignment:         AssignSmallest,
		Landmarks:          8,
		HelloEvery:         2 * runtime.Second,
		HelloTimeout:       5 * runtime.Second,
		SuppressTimeout:    1 * runtime.Second,
		LookupTimeout:      30 * runtime.Second,
		JoinTimeout:        30 * runtime.Second,
		FingerRefreshEvery: 2 * runtime.Second,
		ReplicationK:       1,
		LookupAlpha:        1,
	}
}

// Validate reports configuration errors, a zero without meaning among them.
func (c Config) Validate() error {
	switch {
	case c.Ps < 0 || c.Ps > 1:
		return fmt.Errorf("core: Ps %v outside [0, 1]", c.Ps)
	case c.Placement > PlaceSpread:
		return fmt.Errorf("core: unknown Placement %d", c.Placement)
	case c.Assignment > AssignCluster:
		return fmt.Errorf("core: unknown Assignment %d", c.Assignment)
	case c.Delta < 2:
		return fmt.Errorf("core: Delta %d < 2 cannot form a tree", c.Delta)
	case c.TTL < 1:
		return fmt.Errorf("core: TTL %d < 1", c.TTL)
	case c.HelloEvery <= 0, c.HelloTimeout <= 0:
		return fmt.Errorf("core: HELLO periods must be positive")
	case c.HelloTimeout <= c.HelloEvery:
		return fmt.Errorf("core: HelloTimeout %v must exceed HelloEvery %v", c.HelloTimeout, c.HelloEvery)
	case c.LookupTimeout <= 0:
		return fmt.Errorf("core: LookupTimeout must be positive")
	case c.JoinTimeout <= 0, c.FingerRefreshEvery <= 0:
		return fmt.Errorf("core: JoinTimeout and FingerRefreshEvery must be positive")
	case c.Assignment == AssignCluster && c.Landmarks < 1:
		return fmt.Errorf("core: AssignCluster requires at least one landmark")
	case c.ReplicationK < 1:
		return fmt.Errorf("core: ReplicationK %d < 1", c.ReplicationK)
	case c.LookupAlpha < 1 || c.LookupAlpha > MaxLookupAlpha:
		return fmt.Errorf("core: LookupAlpha %d outside [1, %d]", c.LookupAlpha, MaxLookupAlpha)
	case c.Route > RouteSuccessor:
		return fmt.Errorf("core: unknown Route %d", c.Route)
	}
	return nil
}
