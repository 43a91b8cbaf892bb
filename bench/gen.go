package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// The generators below are the only source of load: everything the programs
// under test receive is derived from -seed here, so equal seeds give equal
// inputs and the verifier can recompute any value from its key alone.

// preKey names the i-th preloaded key.
func preKey(seed int64, i int) string { return fmt.Sprintf("p%x-%05d", uint64(seed), i) }

// freshKey names the n-th key first written by a client during measurement.
func freshKey(seed int64, client, n int) string {
	return fmt.Sprintf("f%x-%d-%06d", uint64(seed), client, n)
}

// valueFor derives the size-byte value stored under key. GET verification
// recomputes it, so a stale, truncated or foreign body is caught.
func valueFor(seed int64, key string, size int) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
	const hex = "0123456789abcdef"
	b := make([]byte, size)
	for i := range b {
		if i%16 == 0 {
			// splitmix64 step: a fresh 64-bit word per 16 hex digits.
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			x = z ^ (z >> 31)
		}
		b[i] = hex[(x>>(4*uint(i%16)))&15]
	}
	return string(b)
}

// kvOp is one generated /kv request.
type kvOp struct {
	put bool
	key string
}

// kvGen produces one client's request sequence. With putShare 0 it is the
// kv_read mix (uniform GETs over the preloaded keys). Otherwise each op is a
// PUT of a fresh key with probability putShare, else a GET split evenly
// between preloaded keys and keys this client has already had acknowledged.
// Keys are written exactly once: spread placement random-walks every store,
// so an overwrite would leave divergent copies and turn stale reads into
// benchmark noise.
type kvGen struct {
	rng      *rand.Rand
	seed     int64
	client   int
	preload  int
	putShare float64
	fresh    int
	acked    []string
}

func newKVGen(seed int64, client, preload int, putShare float64) *kvGen {
	return &kvGen{
		rng:      rand.New(rand.NewSource(seed*7919 + int64(client))),
		seed:     seed,
		client:   client,
		preload:  preload,
		putShare: putShare,
	}
}

func (g *kvGen) next() kvOp {
	if g.putShare > 0 && g.rng.Float64() < g.putShare {
		g.fresh++
		return kvOp{put: true, key: freshKey(g.seed, g.client, g.fresh)}
	}
	if len(g.acked) > 0 && g.rng.Intn(2) == 0 {
		return kvOp{key: g.acked[g.rng.Intn(len(g.acked))]}
	}
	return kvOp{key: preKey(g.seed, g.rng.Intn(g.preload))}
}

// ack records that a PUT was acknowledged, making the key eligible for GETs.
func (g *kvGen) ack(key string) { g.acked = append(g.acked, key) }
