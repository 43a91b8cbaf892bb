package main

import (
	"reflect"
	"testing"
)

// sequence draws n ops, acknowledging every PUT as a successful run would.
func sequence(seed int64, client int, putShare float64, n int) []kvOp {
	g := newKVGen(seed, client, 100, putShare)
	ops := make([]kvOp, n)
	for i := range ops {
		ops[i] = g.next()
		if ops[i].put {
			g.ack(ops[i].key)
		}
	}
	return ops
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, share := range []float64{0, 0.5} {
		a, b := sequence(7, 0, share, 500), sequence(7, 0, share, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("putShare %v: same seed gave different sequences", share)
		}
		if reflect.DeepEqual(a, sequence(8, 0, share, 500)) {
			t.Errorf("putShare %v: different seeds gave the same sequence", share)
		}
		if reflect.DeepEqual(a, sequence(7, 1, share, 500)) {
			t.Errorf("putShare %v: the two clients of one run share a sequence", share)
		}
	}
}

func TestMixedGeneratorShape(t *testing.T) {
	ops := sequence(3, 0, 0.5, 4000)
	puts, written := 0, map[string]bool{}
	for _, op := range ops {
		if op.put {
			puts++
			if written[op.key] {
				t.Fatalf("key %s written twice: keys must be write-once", op.key)
			}
			written[op.key] = true
		} else if op.key[0] == 'f' && !written[op.key] {
			t.Fatalf("GET of %s before its PUT was acknowledged", op.key)
		}
	}
	if puts < 1800 || puts > 2200 {
		t.Errorf("%d PUTs in 4000 ops, want about half", puts)
	}
	for _, op := range sequence(3, 0, 0, 500) {
		if op.put {
			t.Fatal("kv_read generated a PUT")
		}
	}
}

func TestValueFor(t *testing.T) {
	v := valueFor(1, "k", 1024)
	if len(v) != 1024 || v != valueFor(1, "k", 1024) {
		t.Error("valueFor must be a deterministic value of the requested size")
	}
	if v == valueFor(2, "k", 1024) || v == valueFor(1, "j", 1024) {
		t.Error("valueFor must depend on seed and key")
	}
	if valueFor(1, "k", 64) != v[:64] {
		t.Error("a shorter value must be a prefix of a longer one")
	}
}
