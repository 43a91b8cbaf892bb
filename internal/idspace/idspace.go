// Package idspace implements the circular 64-bit identifier space shared by
// every overlay in this repository.
//
// Peers (p_id) and data items (d_id) are hashed into the same space, exactly
// as in the paper: "a peer hashes the data key to an integer d_id which is in
// the same range as p_id". The space wraps around, so interval membership and
// distances are defined clockwise on the ring.
package idspace

import (
	"fmt"
	"hash/fnv"
)

// ID is a point on the identifier ring.
type ID uint64

// String renders the ID in fixed-width hexadecimal.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// HashKey maps an arbitrary data key to its d_id: FNV-1a followed by a
// 64-bit avalanche finalizer. Plain FNV-1a clusters near-identical keys
// ("item-000001", "item-000002", ...) in the high bits — whole workload
// blocks would land in one ring segment — so the finalizer mixes every
// input bit into every output bit. Deterministic across runs and platforms,
// which the experiment harness relies on.
func HashKey(key string) ID {
	h := fnv.New64a()
	h.Write([]byte(key))
	return ID(Mix64(h.Sum64()))
}

// HashBytes maps raw bytes (e.g. a serialized network address) to an ID.
// The bootstrap server uses this for hash-of-address p_id generation.
func HashBytes(b []byte) ID {
	h := fnv.New64a()
	h.Write(b)
	return ID(Mix64(h.Sum64()))
}

// Mix64 is the MurmurHash3/SplitMix64 avalanche finalizer: a bijection on
// 64-bit words in which every input bit affects every output bit.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Distance returns the clockwise distance from a to b on the ring.
func Distance(a, b ID) uint64 { return uint64(b - a) }

// Between reports whether x lies in the half-open clockwise interval (a, b].
// This is the ownership test used throughout Chord-style protocols: peer b
// with predecessor a owns exactly the ids x with Between(a, x, b).
func Between(a, x, b ID) bool {
	if a == b {
		// Degenerate interval: a single peer owns the entire ring.
		return true
	}
	if a < b {
		return a < x && x <= b
	}
	return x > a || x <= b
}

// StrictBetween reports whether x lies in the open clockwise interval (a, b).
// Finger-table routing uses the open form.
func StrictBetween(a, x, b ID) bool {
	if a == b {
		return x != a
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// Midpoint returns the id halfway along the clockwise arc from a to b. The
// paper uses the midpoint to resolve p_id conflicts: "the new p_id can be
// random or simply the midpoint for load balancing purpose".
func Midpoint(a, b ID) ID {
	return a + ID(Distance(a, b)/2)
}

// Add offsets an id clockwise, wrapping around the ring.
func Add(a ID, off uint64) ID { return a + ID(off) }

// FingerStart returns the start of the i-th finger interval for a peer with
// the given id: id + 2^i (mod 2^64), for i in [0, 64).
func FingerStart(id ID, i int) ID {
	if i < 0 || i >= 64 {
		panic(fmt.Sprintf("idspace: finger index %d out of range", i))
	}
	return id + ID(uint64(1)<<uint(i))
}
