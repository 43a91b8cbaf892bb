package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/idspace"
)

// The tests in this file hold didSet to a reference model: a plain map from
// data id to item. Every put, overwrite, delete and cut goes to both; every
// read, the set's order and every cut's contents must match what the map
// and idspace.Between say.

type setModel struct {
	t    *testing.T
	rng  *rand.Rand
	set  didSet[Item]
	want map[idspace.ID]Item
	ids  []idspace.ID // the universe keys are drawn from
	ver  int          // makes every put a distinct value
}

func (m *setModel) id() idspace.ID { return m.ids[m.rng.Intn(len(m.ids))] }

func (m *setModel) put() {
	m.ver++
	it := Item{Key: fmt.Sprint(m.ver), Value: fmt.Sprint("v", m.ver), DID: m.id()}
	prev, had := m.want[it.DID]
	old, replaced := m.set.put(it)
	if replaced != had || replaced && old != prev {
		m.t.Fatalf("put %v: replaced %v (%v), model had %v (%v)", it.DID, replaced, old, had, prev)
	}
	m.want[it.DID] = it
}

func (m *setModel) del() {
	did := m.id()
	prev, had := m.want[did]
	got, ok := m.set.del(did)
	if ok != had || ok && got != prev {
		m.t.Fatalf("del %v: got %v (%v), model had %v (%v)", did, ok, got, had, prev)
	}
	delete(m.want, did)
}

// bound draws a cut bound: a key the set may hold (so cuts start and end on
// present keys), a neighbour of one, either end of the space, or anything.
func (m *setModel) bound() idspace.ID {
	switch m.rng.Intn(4) {
	case 0, 1:
		return m.id()
	case 2:
		return m.id() + idspace.ID(m.rng.Intn(3)) - 1
	default:
		return idspace.ID(m.rng.Uint64())
	}
}

func (m *setModel) cut() {
	lo, hi := m.bound(), m.bound()
	switch m.rng.Intn(6) {
	case 0:
		hi = lo
	case 1:
		lo, hi = max(lo, hi), min(lo, hi) // wrapped
	}
	var want []Item
	for did, it := range m.want {
		if idspace.Between(lo, did, hi) {
			want = append(want, it)
			delete(m.want, did)
		}
	}
	slices.SortFunc(want, func(a, b Item) int { return cmp.Compare(a.DID, b.DID) })
	if got := m.set.cut(lo, hi); !slices.Equal(got, want) {
		m.t.Fatalf("cut (%v, %v]: got %v, want %v", lo, hi, dids(got), dids(want))
	}
}

// check compares every read of the set with the model.
func (m *setModel) check() {
	all := m.set.all()
	if m.set.len() != len(m.want) || len(all) != len(m.want) {
		m.t.Fatalf("set holds %d (all %d), model %d", m.set.len(), len(all), len(m.want))
	}
	if !slices.IsSortedFunc(all, func(a, b Item) int { return cmp.Compare(a.DID, b.DID) }) {
		m.t.Fatalf("entries out of DID order: %v", dids(all))
	}
	for _, did := range m.ids {
		want, had := m.want[did]
		got, ok := m.set.get(did)
		if ok != had || got != want || m.set.has(did) != had {
			m.t.Fatalf("get %v: %v (%v), model %v (%v)", did, ok, got, had, want)
		}
	}
	for _, it := range all {
		if m.want[it.DID] != it {
			m.t.Fatalf("entry %v is not the model's %v", it, m.want[it.DID])
		}
	}
}

func dids(items []Item) []idspace.ID {
	out := make([]idspace.ID, len(items))
	for i, it := range items {
		out[i] = it.DID
	}
	return out
}

func TestDIDSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A small universe so puts overwrite and deletes hit, with both ends
		// of the id space in it so wrapped cuts straddle zero.
		ids := []idspace.ID{0, 1, math.MaxUint64 - 1, math.MaxUint64}
		for n := 4 + rng.Intn(30); len(ids) < n; {
			ids = append(ids, idspace.ID(rng.Uint64()))
		}
		m := &setModel{t: t, rng: rng, want: make(map[idspace.ID]Item), ids: ids}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				m.put()
			case r < 8:
				m.del()
			default:
				m.cut()
			}
			m.check()
		}
	}
}

func TestMergeItemsIsSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batch := func(tag string) []Item {
		var s didSet[Item]
		for i := rng.Intn(8); i > 0; i-- {
			did := idspace.ID(rng.Intn(12))
			s.put(Item{Key: tag, DID: did})
		}
		return s.all()
	}
	for round := 0; round < 500; round++ {
		a, b := batch("a"), batch("b")
		want := map[idspace.ID]string{}
		for _, it := range b {
			want[it.DID] = "b"
		}
		for _, it := range a {
			want[it.DID] = "a" // a wins a shared id
		}
		got := mergeItems(slices.Clone(a), slices.Clone(b))
		if len(got) != len(want) || !slices.IsSortedFunc(got, func(x, y Item) int { return cmp.Compare(x.DID, y.DID) }) {
			t.Fatalf("merge %v + %v = %v", dids(a), dids(b), dids(got))
		}
		for i, it := range got {
			if want[it.DID] != it.Key || i > 0 && got[i-1].DID == it.DID {
				t.Fatalf("merge %v + %v = %v: entry %v from %q", dids(a), dids(b), dids(got), it.DID, it.Key)
			}
		}
	}
}
