// Package analytic implements the closed-form performance models of
// section 4 of the paper: average join latency (Eq. 1), the out-of-range
// peer count behind the lookup failure ratio (Eq. 2), and the average data
// lookup latency with and without the degree constraint.
//
// All quantities are expressed in overlay hops, exactly as in the paper; the
// experiment harness plots them next to the simulated hop counts
// (Fig. 3a/3b) to check that the implementation matches the model.
package analytic

import (
	"math"
)

// Params carries the model inputs.
type Params struct {
	// N is the total number of peers.
	N float64
	// Ps is the proportion of s-peers.
	Ps float64
	// Delta is the s-network degree constraint δ.
	Delta float64
	// TTL is the flood radius.
	TTL float64
}

// log2 is the base-2 logarithm clamped at zero: the paper's hop estimates
// never go negative.
func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// logd is the base-δ logarithm clamped at zero.
func logd(x, d float64) float64 {
	if x <= 1 || d <= 1 {
		return 0
	}
	return math.Log(x) / math.Log(d)
}

// AvgSNetSize returns the average number of s-peers per s-network,
// p_s/(1-p_s) (section 4.1).
func AvgSNetSize(ps float64) float64 {
	if ps >= 1 {
		return math.Inf(1)
	}
	return ps / (1 - ps)
}

// TJoinHops returns the expected hop count of a t-peer join request
// traveling the ring with finger acceleration: log((1-ps)N/2).
func TJoinHops(p Params) float64 {
	return log2((1 - p.Ps) * p.N / 2)
}

// SJoinHops returns the expected hop count of an s-peer join walk: the
// average height of the degree-δ tree, log_δ(ps/(1-ps)).
func SJoinHops(p Params) float64 {
	return logd(AvgSNetSize(p.Ps), p.Delta)
}

// JoinLatency evaluates Eq. (1): the population-weighted average join hop
// count, (1-ps)*log((1-ps)N/2) + ps*log_δ(ps/(1-ps)).
func JoinLatency(p Params) float64 {
	return (1-p.Ps)*TJoinHops(p) + p.Ps*SJoinHops(p)
}

// PLocal returns p, the probability that a looked-up item is served by the
// requester's own s-network: ps/(N*(1-ps)) (section 4.2).
func PLocal(p Params) float64 {
	if p.Ps >= 1 {
		return 1
	}
	v := p.Ps / (p.N * (1 - p.Ps))
	if v > 1 {
		return 1
	}
	return v
}

// OutOfRange evaluates Eq. (2): the expected number of s-network peers
// beyond the flood radius, averaged over t-peer- and leaf-initiated floods.
// Negative values (the flood covers everything) clamp to zero.
func OutOfRange(p Params) float64 {
	size := AvgSNetSize(p.Ps)
	d, ttl := p.Delta, p.TTL
	if d <= 1 {
		if size > ttl {
			return size - ttl
		}
		return 0
	}
	covered := (math.Pow(d, ttl+1)*(d-1) + math.Pow(d, 2+ttl/2) - (d-1)*ttl/2) /
		(2 * (d - 1) * (d - 1))
	out := size - covered
	if out < 0 {
		return 0
	}
	return out
}

// FailureRatio approximates the lookup failure ratio as the out-of-range
// fraction of the average s-network.
func FailureRatio(p Params) float64 {
	size := AvgSNetSize(p.Ps)
	if size <= 0 {
		return 0
	}
	r := OutOfRange(p) / size
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// LookupLatency returns the average lookup hop count with the degree
// constraint δ (section 4.2):
//
//	p*ttl + (1-p)*(max{0, ½·log_δ(ps/(1-ps))} + ttl + log((1-ps)N/2))
func LookupLatency(p Params) float64 {
	pl := PLocal(p)
	climb := logd(AvgSNetSize(p.Ps), p.Delta) / 2
	if climb < 0 {
		climb = 0
	}
	ring := log2((1 - p.Ps) * p.N / 2)
	return pl*p.TTL + (1-pl)*(climb+p.TTL+ring)
}

// OptimalJoinPs finds the ps in (0, 0.99] minimizing Eq. (1) by grid search;
// the paper reports values around 0.7-0.8.
func OptimalJoinPs(n, delta float64) float64 {
	best, bestVal := 0.0, math.Inf(1)
	for ps := 0.0; ps <= 0.99+1e-9; ps += 0.01 {
		v := JoinLatency(Params{N: n, Ps: ps, Delta: delta})
		if v < bestVal {
			best, bestVal = ps, v
		}
	}
	return best
}
