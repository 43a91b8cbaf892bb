// Package kad implements a Kademlia node (Maymounkov & Mazières 2002) over
// the repository's runtime.Transport abstraction: 160-bit XOR ids, k-buckets
// with least-recently-seen eviction, and α-parallel iterative FIND_NODE /
// FIND_VALUE lookups.
//
// It is the baseline off the ring next to internal/gnutella and the hybrid
// itself at p_s = 0 — the industry-standard comparator (BitTorrent Mainline
// DHT, IPFS) for the hybrid system's lookup cost and churn resilience — and
// the reference design for the α-probe port in internal/core (see
// Config.LookupAlpha there).
package kad

import (
	"crypto/sha1"
	"math/bits"
)

// IDBits is the identifier width; k-buckets cover distances 2^0 .. 2^159.
const IDBits = 160

// ID is a 160-bit Kademlia identifier, big-endian. Node ids and key ids
// share the space; closeness is XOR distance.
type ID [20]byte

// HashKey derives the id of a data key.
func HashKey(key string) ID { return sha1.Sum([]byte(key)) }

// HashBytes derives an id from arbitrary bytes (node ids in tests and the
// experiment harness).
func HashBytes(b []byte) ID { return sha1.Sum(b) }

// xor returns the XOR distance between two ids.
func (a ID) xor(b ID) ID {
	var d ID
	for i := range a {
		d[i] = a[i] ^ b[i]
	}
	return d
}

// less compares two ids as big-endian integers.
func (a ID) less(b ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Closer reports whether a is strictly closer to target than b in XOR
// distance.
func Closer(a, b, target ID) bool {
	return a.xor(target).less(b.xor(target))
}

// bucketIndex returns the k-bucket index for a contact at XOR distance d
// from self: the position of the highest set bit (0 = adjacent ids,
// IDBits-1 = opposite halves of the space), or -1 for distance zero (self).
func bucketIndex(d ID) int {
	for i := 0; i < len(d); i++ {
		if d[i] != 0 {
			return (len(d)-1-i)*8 + (7 - bits.LeadingZeros8(d[i]))
		}
	}
	return -1
}
