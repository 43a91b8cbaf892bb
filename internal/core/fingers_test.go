package core

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/idspace"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// at returns slot i of a sized table.
func (t *fingerTable) at(i int) Ref {
	return t.runs[t.run(i)]
}

// tag returns the tag of slot i's probe in flight, 0 if none: the per-slot
// refresh tag the table's rounds stand for.
func (t *fingerTable) tag(i int) uint64 {
	if k := t.round(uint8(i &^ (fingerRoundLen - 1))); k >= 0 {
		rd := t.rounds[k]
		if off := i - int(rd.lo); rd.open&(1<<off) != 0 {
			return rd.first + uint64(off)
		}
	}
	return 0
}

// fingerModel is the table written the plain way: FingerBits slots and
// FingerBits refresh tags, a zero tag meaning no probe in flight.
type fingerModel struct {
	sized bool
	slot  [FingerBits]Ref
	tag   [FingerBits]uint64
	next  int
}

func (m *fingerModel) size() {
	if !m.sized {
		m.sized = true
		for i := range m.slot {
			m.slot[i] = NilRef
		}
	}
}

func (m *fingerModel) replace(old runtime.Addr, r Ref) {
	if !m.sized {
		return
	}
	for i := range m.slot {
		if m.slot[i].Addr == old {
			m.slot[i] = r
		}
	}
}

func (m *fingerModel) openRound(first uint64) int {
	lo := m.next
	m.next = (m.next + fingerRoundLen) % FingerBits
	for k := 0; k < fingerRoundLen; k++ {
		m.tag[lo+k] = first + uint64(k)
	}
	return lo
}

func (m *fingerModel) answer(i int, tag uint64, r Ref) {
	if !m.sized || i < 0 || i >= FingerBits || tag == 0 || m.tag[i] != tag {
		return
	}
	m.tag[i] = 0
	m.slot[i] = r
}

func (m *fingerModel) pending(lo int, first uint64) bool {
	for k := 0; k < fingerRoundLen; k++ {
		if m.tag[lo+k] == first+uint64(k) {
			return true
		}
	}
	return false
}

func (m *fingerModel) expire(lo int, first uint64) {
	for k := 0; k < fingerRoundLen; k++ {
		if m.tag[lo+k] == first+uint64(k) {
			m.tag[lo+k] = 0
			m.slot[lo+k] = NilRef
		}
	}
}

// requireSame fails unless t holds exactly the model's slots, tags and
// cursor, in canonical form: one entry per run, neighbours differing.
func requireSame(t *testing.T, step string, ft *fingerTable, m *fingerModel) {
	t.Helper()
	if got := len(ft.runs) > 0; got != m.sized {
		t.Fatalf("%s: sized = %v, model %v", step, got, m.sized)
	}
	if int(ft.next) != m.next {
		t.Fatalf("%s: next round at %d, model %d", step, ft.next, m.next)
	}
	for i := range m.tag {
		if got := ft.tag(i); got != m.tag[i] {
			t.Fatalf("%s: tag[%d] = %d, model %d", step, i, got, m.tag[i])
		}
	}
	if len(ft.rounds) > FingerBits/fingerRoundLen {
		t.Fatalf("%s: %d rounds open", step, len(ft.rounds))
	}
	for _, rd := range ft.rounds {
		if rd.open == 0 || rd.lo%fingerRoundLen != 0 {
			t.Fatalf("%s: round %+v kept", step, rd)
		}
	}
	if !m.sized {
		if ft.slots() != nil {
			t.Fatalf("%s: an unsized table exports slots", step)
		}
		return
	}
	if ft.starts&1 == 0 || bits.OnesCount64(ft.starts) != len(ft.runs) {
		t.Fatalf("%s: starts %064b for %d runs", step, ft.starts, len(ft.runs))
	}
	for j := 1; j < len(ft.runs); j++ {
		if ft.runs[j] == ft.runs[j-1] {
			t.Fatalf("%s: runs %d and %d both hold %+v", step, j-1, j, ft.runs[j])
		}
	}
	if got := ft.slots(); !slices.Equal(got, m.slot[:]) {
		t.Fatalf("%s: slots\n%v\nmodel\n%v", step, got, m.slot)
	}
	for i := range m.slot {
		if got := ft.at(i); got != m.slot[i] {
			t.Fatalf("%s: at(%d) = %+v, model %+v", step, i, got, m.slot[i])
		}
	}
}

// TestFingerTableMatchesSlotModel drives the run-length table and the
// slot-and-tag model through the same random writes, exports, imports,
// scans and refresh rounds — answered, stale, foreign, superseded and timed
// out — and holds them equal after every step.
func TestFingerTableMatchesSlotModel(t *testing.T) {
	// A handful of peers, one of them under two ids, so that neighbouring
	// runs share an address and a rewrite by address can merge them.
	pool := []Ref{NilRef, {ID: 10, Addr: 1}, {ID: 20, Addr: 2}, {ID: 30, Addr: 3}, {ID: 40, Addr: 4}, {ID: 45, Addr: 4}, {ID: 50, Addr: 5}}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() Ref { return pool[rng.Intn(len(pool))] }
		var ft fingerTable
		var m fingerModel
		var tag uint64 // the tag counter
		type issued struct {
			lo    int
			first uint64
		}
		var rounds []issued // every round opened, in order
		for step := 0; step < 400; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 3:
				what = "size"
				ft.size()
				m.size()
			case op < 6:
				r := pick()
				what = fmt.Sprintf("fill %+v", r)
				ft.fill(r)
				m.size()
				for i := range m.slot {
					m.slot[i] = r
				}
			case !m.sized:
				continue // everything below needs a sized table, as in the protocol
			case op < 30:
				// Runs of equal slots come from writing one value over a
				// stretch, as a settled ring's answers do.
				i, r := rng.Intn(FingerBits), pick()
				n := 1 + rng.Intn(4)
				what = fmt.Sprintf("set %d..%d %+v", i, i+n-1, r)
				for k := i; k < i+n && k < FingerBits; k++ {
					ft.set(k, r)
					m.slot[k] = r
				}
			case op < 38:
				old, r := pick().Addr, pick()
				what = fmt.Sprintf("replace %d by %+v", old, r)
				ft.replace(old, r)
				m.replace(old, r)
			case op < 41:
				old, r := pick().Addr, pick()
				what = fmt.Sprintf("replace invalid or %d by %+v", old, r)
				ft.replace(runtime.None, r)
				ft.replace(old, r)
				for i := range m.slot {
					if !m.slot[i].Valid() || m.slot[i].Addr == old {
						m.slot[i] = r
					}
				}
			case op < 45:
				var s []Ref
				if n := rng.Intn(3); n > 0 {
					s = make([]Ref, []int{0, 5, FingerBits}[n])
					for i := range s {
						s[i] = pick()
					}
				}
				what = fmt.Sprintf("load %d slots", len(s))
				exported := ft.slots()
				ft.load(s)
				copy(m.slot[:], s)
				var back fingerTable
				back.load(exported)
				if !slices.Equal(back.slots(), exported) {
					t.Fatalf("seed %d step %d: export/import round trip changed the slots", seed, step)
				}
			case op < 55:
				// Top-down scan, as closestPreceding walks it.
				self, target := idspace.ID(rng.Intn(60)), idspace.ID(rng.Intn(60))
				want := NilRef
				for i := FingerBits - 1; i >= 0; i-- {
					if f := m.slot[i]; f.Valid() && idspace.StrictBetween(self, f.ID, target) {
						want = f
						break
					}
				}
				got := NilRef
				es := ft.entries()
				for j := len(es) - 1; j >= 0; j-- {
					if f := es[j]; f.Valid() && idspace.StrictBetween(self, f.ID, target) {
						got = f
						break
					}
				}
				if got != want {
					t.Fatalf("seed %d step %d: scan from %d toward %d found %+v, model %+v", seed, step, self, target, got, want)
				}
				continue
			case op < 68:
				first := tag + 1
				tag += fingerRoundLen
				lo := ft.openRound(first)
				if mlo := m.openRound(first); lo != mlo {
					t.Fatalf("seed %d step %d: round opened at %d, model %d", seed, step, lo, mlo)
				}
				rounds = append(rounds, issued{lo, first})
				what = fmt.Sprintf("open round %d under %d", lo, first)
			case op < 88:
				// Answer a probe: mostly one in flight, else a stale tag of an
				// earlier round, a neighbour's tag, tag 0 or a slot out of range.
				var i int
				var tg uint64
				switch k := rng.Intn(10); {
				case k < 6 && len(rounds) > 0:
					rd := rounds[len(rounds)-1-rng.Intn(min(2, len(rounds)))]
					off := rng.Intn(fingerRoundLen)
					i, tg = rd.lo+off, rd.first+uint64(off)
				case k < 8 && len(rounds) > 0:
					rd := rounds[rng.Intn(len(rounds))]
					off := rng.Intn(fingerRoundLen)
					i, tg = (rd.lo+off+1+rng.Intn(FingerBits-1))%FingerBits, rd.first+uint64(off)
				case k < 9:
					i, tg = rng.Intn(FingerBits), 0
				default:
					i, tg = []int{-1, FingerBits, 1000}[rng.Intn(3)], tag
				}
				r := pick()
				what = fmt.Sprintf("answer slot %d tag %d with %+v", i, tg, r)
				ft.answer(i, tg, r)
				m.answer(i, tg, r)
			default:
				if len(rounds) == 0 {
					continue
				}
				rd := rounds[rng.Intn(len(rounds))]
				if got, want := ft.pending(rd.lo, rd.first), m.pending(rd.lo, rd.first); got != want {
					t.Fatalf("seed %d step %d: round %d under %d pending = %v, model %v", seed, step, rd.lo, rd.first, got, want)
				}
				what = fmt.Sprintf("expire round %d under %d", rd.lo, rd.first)
				ft.expire(rd.lo, rd.first)
				m.expire(rd.lo, rd.first)
			}
			requireSame(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what), &ft, &m)
		}
	}
}

// settledTPeers builds a settled n-peer system at p_s = 0.
func settledTPeers(t *testing.T, n int) *System {
	t.Helper()
	sys := newTestSystem(t, 41, func(c *Config) { c.Ps = 0 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: n}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(2 * FingerBits / fingerRoundLen * sys.Cfg.FingerRefreshEvery)
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFingerTableFootprint pins the finger state of a settled N=1000 ring of
// t-peers, counted from the capacities the table holds, at 512 bytes per
// t-peer on average (the slot-and-tag arrays took 1 536), Peer, tState and
// replState each filling their allocator size class, a watchdog entry at 32
// bytes, and the rounds in flight at two — through a crash and join wave too.
func TestFingerTableFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1000-peer ring")
	}
	if s := unsafe.Sizeof(Peer{}); s != 240 {
		t.Errorf("Peer is %d bytes, want 240: its size class, with the ring, a pending join and the enhancements behind pointers", s)
	}
	if s := unsafe.Sizeof(tState{}); s != 192 {
		t.Errorf("tState is %d bytes, want 192: its size class, with the triangle epoch in 32 bits", s)
	}
	if s := unsafe.Sizeof(replState{}); s != 192 {
		t.Errorf("replState is %d bytes, want 192: its size class, with owned, reps and acks as slices", s)
	}
	if s := unsafe.Sizeof(nbrWatch{}); s != 32 {
		t.Errorf("nbrWatch is %d bytes, want 32: a deadline in place of the timer pointer, the set order in the padding", s)
	}
	sys := settledTPeers(t, 1000)
	footprint := func(p *Peer) int {
		f := &p.t.fingers
		return int(unsafe.Sizeof(*f)) + cap(f.runs)*int(unsafe.Sizeof(Ref{})) +
			cap(f.rounds)*int(unsafe.Sizeof(fingerRound{}))
	}
	tps := sys.TPeers()
	bytes, runs := 0, 0
	for _, p := range tps {
		bytes += footprint(p)
		runs += len(p.t.fingers.entries())
	}
	per := float64(bytes) / float64(len(tps))
	t.Logf("%d t-peers: %.1f runs and %.0f bytes of finger state per t-peer", len(tps), float64(runs)/float64(len(tps)), per)
	if len(tps) != 1000 || per > 512 {
		t.Errorf("%d t-peers hold %.0f bytes of finger state each, want 1000 at no more than 512", len(tps), per)
	}

	// A crash and join wave, then a settle: no t-peer ever had more than two
	// rounds open (a third would have grown the capacity past two).
	stubs := sys.Topo().StubNodes()
	for i := 0; i < 50; i++ {
		tps[(i*37)%len(tps)].Crash()
		sys.Join(JoinOpts{Host: stubs[i%len(stubs)], Capacity: 1}, nil)
	}
	sys.Settle(4 * sys.Cfg.HelloTimeout)
	for _, p := range sys.TPeers() {
		if c := cap(p.t.fingers.rounds); c > 2 {
			t.Errorf("peer %d: room for %d refresh rounds, want at most 2 ever open", p.Addr, c)
		}
	}
}

// TestRingSummaryFingersMatchSlots holds /ring's finger lists to the slot
// walk it replaced — every slot in order, the first of each address kept —
// byte for byte in the JSON, on a ring with crashed fingers in it.
func TestRingSummaryFingersMatchSlots(t *testing.T) {
	sys := newTestSystem(t, 42, func(c *Config) { c.Ps = 0.2 })
	peers, _, err := sys.BuildPopulation(PopulationOpts{N: 120})
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(20 * sim.Second)
	for i := 0; i < 6; i++ {
		peers[i*17].Crash()
	}
	sys.Settle(sys.Cfg.HelloTimeout / 2)
	got := sys.RingSummary()
	want := got
	want.Ring = slices.Clone(got.Ring)
	multi := 0
	for i := range want.Ring {
		p := sys.peerAt(want.Ring[i].Addr)
		seen := map[runtime.Addr]bool{}
		var fs []RefView
		for _, f := range p.t.fingers.slots() {
			if f.Valid() && !seen[f.Addr] {
				seen[f.Addr] = true
				fs = append(fs, RefView{Addr: f.Addr, ID: f.ID})
			}
		}
		want.Ring[i].Fingers = fs
		if len(fs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no t-peer has two distinct fingers; the comparison is empty")
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Errorf("/ring differs from the slot walk:\n%s\nwant\n%s", gb, wb)
	}
}
