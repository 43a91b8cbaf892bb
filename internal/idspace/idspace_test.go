package idspace

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashKeyDeterministic(t *testing.T) {
	a := HashKey("item-000001")
	b := HashKey("item-000001")
	if a != b {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("item-000001") == HashKey("item-000002") {
		t.Fatal("distinct keys collide (astronomically unlikely)")
	}
}

func TestHashBytesMatchesKnownDistinction(t *testing.T) {
	if HashBytes([]byte("a")) == HashBytes([]byte("b")) {
		t.Fatal("HashBytes collision on trivial inputs")
	}
}

func TestBetweenBasics(t *testing.T) {
	cases := []struct {
		a, x, b ID
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false}, // open at a
		{10, 20, 20, true},  // closed at b
		{10, 25, 20, false},
		{10, 5, 20, false},
		// Wrapped interval (20, 10]:
		{20, 25, 10, true},
		{20, 5, 10, true},
		{20, 10, 10, true},
		{20, 15, 10, false},
		{20, 20, 10, false},
		// Degenerate (a == b): whole ring.
		{7, 123, 7, true},
		{7, 7, 7, true},
	}
	for _, c := range cases {
		if got := Between(c.a, c.x, c.b); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
}

func TestStrictBetweenBasics(t *testing.T) {
	cases := []struct {
		a, x, b ID
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false},
		{10, 20, 20, false}, // open at b
		{20, 5, 10, true},
		{20, 10, 10, false},
		{7, 123, 7, true}, // degenerate: everything except a
		{7, 7, 7, false},
	}
	for _, c := range cases {
		if got := StrictBetween(c.a, c.x, c.b); got != c.want {
			t.Errorf("StrictBetween(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
}

// Property: for distinct a, b, every x other than a and b lies in exactly
// one of (a, b] and (b, a].
func TestBetweenPartitionProperty(t *testing.T) {
	f := func(a, x, b uint64) bool {
		A, X, B := ID(a), ID(x), ID(b)
		if A == B {
			return true
		}
		in1 := Between(A, X, B)
		in2 := Between(B, X, A)
		if X == A {
			return !in1 && in2
		}
		if X == B {
			return in1 && !in2
		}
		return in1 != in2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Between(a, x, b) == StrictBetween(a, x, b) || x == b (for a != b).
func TestBetweenVsStrictProperty(t *testing.T) {
	f := func(a, x, b uint64) bool {
		A, X, B := ID(a), ID(x), ID(b)
		if A == B {
			return true
		}
		return Between(A, X, B) == (StrictBetween(A, X, B) || X == B)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the midpoint of (a, b) lies in (a, b] and halves the distance.
func TestMidpointProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		A, B := ID(a), ID(b)
		if A == B {
			return Midpoint(A, B) == A
		}
		m := Midpoint(A, B)
		if Distance(A, B) >= 2 && !Between(A, m, B) {
			return false
		}
		return Distance(A, m) == Distance(A, B)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: distance is additive around the ring.
func TestDistanceProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		A, B := ID(a), ID(b)
		if A == B {
			return Distance(A, B) == 0
		}
		return Distance(A, B)+Distance(B, A) == 0 // wraps to 2^64 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerStart(t *testing.T) {
	if FingerStart(0, 0) != 1 {
		t.Fatal("finger 0 of id 0 should be 1")
	}
	if FingerStart(0, 63) != 1<<63 {
		t.Fatal("finger 63 of id 0 should be 2^63")
	}
	if FingerStart(^ID(0), 0) != 0 {
		t.Fatal("finger wraps")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FingerStart(_, 64) should panic")
		}
	}()
	FingerStart(0, 64)
}

func TestIDString(t *testing.T) {
	if got := ID(0xdeadbeef).String(); got != "00000000deadbeef" {
		t.Fatalf("String = %q", got)
	}
}

// TestHashKeyDispersion guards against the FNV clustering regression: the
// hashes of sequential keys must spread across the whole ring, not share
// their high bits (which would put entire workloads into one segment).
func TestHashKeyDispersion(t *testing.T) {
	buckets := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		h := HashKey(fmt.Sprintf("item-%06d", i))
		buckets[uint64(h)>>56]++
	}
	// 1000 keys over 256 top-byte buckets: expect ~3.9 per bucket; any
	// bucket above 20 means the high bits are not avalanching.
	for b, n := range buckets {
		if n > 20 {
			t.Fatalf("top byte %02x holds %d of 1000 sequential keys", b, n)
		}
	}
	if len(buckets) < 200 {
		t.Fatalf("sequential keys cover only %d/256 top-byte buckets", len(buckets))
	}
}
