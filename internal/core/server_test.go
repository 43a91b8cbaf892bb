package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/idspace"
	"repro/internal/runtime"
)

// regModel is the server registry as a plain unordered slice: every query
// is a linear scan, and it knows nothing of order beyond the (id, addr)
// comparison below.
type regModel []member

func before(a, b Ref) bool { return a.ID < b.ID || a.ID == b.ID && a.Addr < b.Addr }

func (m regModel) at(addr runtime.Addr) int {
	for i, e := range m {
		if e.Addr == addr {
			return i
		}
	}
	return -1
}

func (m *regModel) register(r Ref) {
	if i := m.at(r.Addr); i >= 0 {
		(*m)[i].Ref = r
		return
	}
	*m = append(*m, member{Ref: r})
}

func (m *regModel) drop(addr runtime.Addr) int {
	i := m.at(addr)
	if i < 0 {
		return 0
	}
	size := (*m)[i].size
	*m = append((*m)[:i], (*m)[i+1:]...)
	return size
}

func (m regModel) size(addr runtime.Addr) int {
	if i := m.at(addr); i >= 0 {
		return m[i].size
	}
	return 0
}

// first and last return the least and greatest entry for which keep holds.
func (m regModel) first(keep func(Ref) bool) (best Ref, ok bool) {
	for _, e := range m {
		if keep(e.Ref) && (!ok || before(e.Ref, best)) {
			best, ok = e.Ref, true
		}
	}
	return best, ok
}

func (m regModel) last(keep func(Ref) bool) (best Ref, ok bool) {
	for _, e := range m {
		if keep(e.Ref) && (!ok || before(best, e.Ref)) {
			best, ok = e.Ref, true
		}
	}
	return best, ok
}

func every(Ref) bool { return true }

// successor and predecessor wrap around the ring when nothing qualifies.
func (m regModel) successor(id idspace.ID) Ref {
	if r, ok := m.first(func(r Ref) bool { return r.ID >= id }); ok {
		return r
	}
	r, _ := m.first(every)
	return r
}

func (m regModel) predecessor(id idspace.ID) Ref {
	if r, ok := m.last(func(r Ref) bool { return r.ID < id }); ok {
		return r
	}
	r, _ := m.last(every)
	return r
}

func (m regModel) neighbors(self Ref) (pred, succ Ref) {
	pred, ok := m.last(func(r Ref) bool { return before(r, self) })
	if !ok {
		pred, _ = m.last(every)
	}
	succ, ok = m.first(func(r Ref) bool { return before(self, r) })
	if !ok {
		succ, _ = m.first(every)
	}
	return pred, succ
}

// TestServerRegistryMatchesLinearModel drives a bare server's registry
// through random registrations (re-registrations under a new id among
// them), unregistrations, crash substitutions and size syncs, the one writer
// of s-network sizes (a sync from a live t-peer the registry lacks
// re-registers it), and after every step holds the sorted table to the
// linear model: one entry per index key in (id, addr) order, and the same
// successor, predecessor, neighbours and s-network size for every probe. Ids
// come from a handful of values so (id, addr) ties are common.
func TestServerRegistryMatchesLinearModel(t *testing.T) {
	sys := newTestSystem(t, 93, nil)
	sv := sys.Server()
	rng := rand.New(rand.NewSource(7))
	var model regModel
	ids := []idspace.ID{0, 1, 1 << 62, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	id := func() idspace.ID { return ids[rng.Intn(len(ids))] }
	addr := func() runtime.Addr { return runtime.Addr(1000 + rng.Intn(12)) }
	// The t-peers are live endpoints, so no sync is ignored as a dead
	// sender's and no dead-peer sweep reshapes the registry.
	for a := runtime.Addr(1000); a < 1012; a++ {
		sys.rt.Attach(a, runtime.Endpoint{Host: sys.Topo().StubNodes()[0]}, runtime.HandlerFunc(func(runtime.Addr, any) {}))
	}
	for step := 0; step < 4000; step++ {
		var op string
		switch rng.Intn(6) {
		case 0, 1:
			r := Ref{ID: id(), Addr: addr()}
			op = "register"
			sv.recv(r.Addr, ringRegister{Self: r})
			model.register(r)
		case 2:
			a := addr()
			op = "unregister"
			sv.recv(a, ringUnregister{Self: Ref{Addr: a}})
			model.drop(a)
		case 3:
			old := Ref{ID: id(), Addr: addr()}
			if i := model.at(old.Addr); i >= 0 {
				old = model[i].Ref
			}
			nu := Ref{ID: old.ID, Addr: addr()}
			op = "substitute"
			sv.recv(old.Addr, ringReplace{Old: old, New: nu})
			size := model.drop(old.Addr)
			model.register(nu)
			model[model.at(nu.Addr)].size = size
		case 4, 5:
			r, n := Ref{ID: id(), Addr: addr()}, rng.Intn(5)
			op = "size sync"
			sv.recv(r.Addr, sSizeSync{Self: r, Size: n})
			if model.at(r.Addr) < 0 {
				model.register(r)
			}
			model[model.at(r.Addr)].size = n
		}

		if len(sv.ring) != len(model) || len(sv.ringMember) != len(model) {
			t.Fatalf("step %d (%s): %d entries, %d index keys, model %d", step, op, len(sv.ring), len(sv.ringMember), len(model))
		}
		for i, e := range sv.ring {
			if i > 0 && !before(sv.ring[i-1].Ref, e.Ref) {
				t.Fatalf("step %d (%s): entries %d and %d out of (id, addr) order: %v, %v", step, op, i-1, i, sv.ring[i-1].Ref, e.Ref)
			}
			if id, ok := sv.ringMember[e.Addr]; !ok || id != e.ID {
				t.Fatalf("step %d (%s): entry %v indexed under %v (%v)", step, op, e.Ref, id, ok)
			}
		}
		for a := runtime.Addr(1000); a < 1012; a++ {
			if got, want := sv.snetSize(a), model.size(a); got != want {
				t.Fatalf("step %d (%s): snetSize(%d) = %d, model %d", step, op, a, got, want)
			}
			pred, succ, ok := sv.ringNeighbors(a)
			i := model.at(a)
			if ok != (i >= 0) {
				t.Fatalf("step %d (%s): ringNeighbors(%d) ok=%v, model has it: %v", step, op, a, ok, i >= 0)
			}
			if ok {
				wp, ws := model.neighbors(model[i].Ref)
				if pred != wp || succ != ws {
					t.Fatalf("step %d (%s): ringNeighbors(%d) = %v, %v; model %v, %v", step, op, a, pred, succ, wp, ws)
				}
			}
		}
		if len(model) == 0 {
			continue
		}
		for _, probe := range append([]idspace.ID{2, 1<<62 + 1, 1<<63 - 1}, ids...) {
			if got, want := sv.ringSuccessor(probe), model.successor(probe); got != want {
				t.Fatalf("step %d (%s): ringSuccessor(%v) = %v, model %v", step, op, probe, got, want)
			}
			if got, want := sv.ringPredecessor(probe), model.predecessor(probe); got != want {
				t.Fatalf("step %d (%s): ringPredecessor(%v) = %v, model %v", step, op, probe, got, want)
			}
		}
	}
}
