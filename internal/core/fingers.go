package core

import (
	"math/bits"
	"slices"

	"repro/internal/runtime"
)

// fingerRoundLen is the number of consecutive finger slots one refresh tick
// probes. A round starts at a multiple of it, so FingerBits/fingerRoundLen
// ticks cycle through the whole table.
const fingerRoundLen = 8

// fingerTable is a t-peer's FingerBits-slot finger table, stored as one
// entry per run of consecutive equal slots, beside the refresh rounds still
// in flight. A settled table of a 1000-peer ring holds about ten distinct
// fingers, each repeated over the slots whose starts fall between two
// t-peers, so the 64 slots compress to about ten entries; a refresh tag is
// kept only while its probe is unanswered.
//
// The zero value is unsized: it has no slots. It lives in a tState, and a
// t-peer sizes it on joining or promotion (size, fill or load).
type fingerTable struct {
	// runs holds one Ref per run, in slot order; neighbours always differ.
	runs []Ref
	// starts has bit i set when slot i begins a run; bit 0 once sized.
	starts uint64
	// rounds are the refresh rounds with a probe still unanswered, at most
	// one per round start. On the event engine the ticker re-arms before
	// its callback and the round timeout equals its period, so a tick opens
	// its round just before the previous round's timeout fires: two open
	// at most (TestFingerTableFootprint). A wall-clock runtime may fire the
	// two in either order; a third round then costs one more entry.
	rounds []fingerRound
	// next is the first slot of the next refresh round.
	next uint8
}

// fingerRound is one refresh round in flight: slot lo+k was probed under tag
// first+k, and bit k of open stays set until that probe is answered or the
// round times out.
type fingerRound struct {
	first uint64
	lo    uint8
	open  uint8
}

// run returns the index in runs of the run holding slot i.
func (t *fingerTable) run(i int) int {
	return bits.OnesCount64(t.starts&(2<<i-1)) - 1
}

// size gives an unsized table its FingerBits slots, all NilRef.
func (t *fingerTable) size() {
	if len(t.runs) == 0 {
		t.fill(NilRef)
	}
}

// fill sets every slot to r.
func (t *fingerTable) fill(r Ref) {
	t.runs = append(t.runs[:0], r)
	t.starts = 1
}

// entries returns one Ref per run in slot order: the distinct values a scan
// over the slots meets, each once per run. A caller must not keep it across
// a write to the table.
func (t *fingerTable) entries() []Ref {
	return t.runs
}

// set writes r into slot i of a sized table, splitting or joining runs so
// that neighbours still differ.
func (t *fingerTable) set(i int, r Ref) {
	j := t.run(i)
	if t.runs[j] == r {
		return
	}
	first := t.starts&(1<<i) != 0                     // slot i begins run j
	last := i == FingerBits-1 || t.starts&(2<<i) != 0 // slot i ends run j
	joinPrev := first && j > 0 && t.runs[j-1] == r
	joinNext := last && j+1 < len(t.runs) && t.runs[j+1] == r
	switch {
	case first && last: // slot i is run j on its own
		t.runs[j] = r
		if joinNext {
			t.starts &^= 2 << i
			t.runs = slices.Delete(t.runs, j+1, j+2)
		}
		if joinPrev {
			t.starts &^= 1 << i
			t.runs = slices.Delete(t.runs, j, j+1)
		}
	case joinPrev: // slot i leaves the front of run j for the run before
		t.starts = t.starts&^(1<<i) | 2<<i
	case joinNext: // slot i leaves the back of run j for the run after
		t.starts = t.starts&^(2<<i) | 1<<i
	case first:
		t.starts |= 2 << i
		t.runs = slices.Insert(t.runs, j, r)
	case last:
		t.starts |= 1 << i
		t.runs = slices.Insert(t.runs, j+1, r)
	default: // slot i splits run j in three
		t.starts |= 1<<i | 2<<i
		t.runs = slices.Insert(t.runs, j+1, r, t.runs[j])
	}
}

// replace writes r into every slot whose address is old.
func (t *fingerTable) replace(old runtime.Addr, r Ref) {
	changed := false
	for j := range t.runs {
		if t.runs[j].Addr == old {
			t.runs[j] = r
			changed = true
		}
	}
	if !changed {
		return
	}
	// Join the neighbours the rewrite made equal.
	w := 1
	later := t.starts &^ 1 // the starts of runs 1, 2, ...
	for j := 1; j < len(t.runs); j++ {
		s := bits.TrailingZeros64(later)
		later &= later - 1
		if t.runs[j] == t.runs[w-1] {
			t.starts &^= 1 << s
			continue
		}
		t.runs[w] = t.runs[j]
		w++
	}
	t.runs = t.runs[:w]
}

// expand writes the table slot by slot into a.
func (t *fingerTable) expand(a *[FingerBits]Ref) {
	j := -1
	for i := range a {
		if t.starts&(1<<i) != 0 {
			j++
		}
		a[i] = t.runs[j]
	}
}

// slots returns the table as FingerBits slots, the form promoteMsg carries,
// or nil while it is unsized.
func (t *fingerTable) slots() []Ref {
	if len(t.runs) == 0 {
		return nil
	}
	out := make([]Ref, FingerBits)
	t.expand((*[FingerBits]Ref)(out))
	return out
}

// load sizes the table and copies s over its first len(s) slots (at most
// FingerBits), keeping the rest.
func (t *fingerTable) load(s []Ref) {
	t.size()
	var a [FingerBits]Ref
	t.expand(&a)
	copy(a[:], s)
	t.runs, t.starts = t.runs[:0], 0
	for i, r := range a {
		if i == 0 || r != a[i-1] {
			t.runs = append(t.runs, r)
			t.starts |= 1 << i
		}
	}
}

// openRound starts the next refresh round of a sized table: its
// fingerRoundLen slots, from the returned first slot on, are probed under
// tags first, first+1, .... A round still open at the same slots is
// superseded, and its answers and timeout are ignored from now on.
func (t *fingerTable) openRound(first uint64) int {
	lo := t.next
	t.next = (lo + fingerRoundLen) % FingerBits
	if k := t.round(lo); k >= 0 {
		t.rounds = slices.Delete(t.rounds, k, k+1)
	}
	t.rounds = append(t.rounds, fingerRound{first: first, lo: lo, open: 1<<fingerRoundLen - 1})
	return int(lo)
}

// round returns the index in rounds of the open round starting at slot lo,
// or -1.
func (t *fingerTable) round(lo uint8) int {
	for k := range t.rounds {
		if t.rounds[k].lo == lo {
			return k
		}
	}
	return -1
}

// answer writes r into slot i if tag is the tag of that slot's probe still
// in flight; a stale, foreign or out-of-range answer changes nothing.
func (t *fingerTable) answer(i int, tag uint64, r Ref) {
	if i < 0 || i >= FingerBits {
		return
	}
	k := t.round(uint8(i &^ (fingerRoundLen - 1)))
	if k < 0 {
		return
	}
	rd := &t.rounds[k]
	off := i - int(rd.lo)
	if rd.open&(1<<off) == 0 || tag != rd.first+uint64(off) {
		return
	}
	if rd.open &^= 1 << off; rd.open == 0 {
		t.rounds = slices.Delete(t.rounds, k, k+1)
	}
	t.set(i, r)
}

// pending reports whether the round opened at lo under first still has a
// probe in flight.
func (t *fingerTable) pending(lo int, first uint64) bool {
	k := t.round(uint8(lo))
	return k >= 0 && t.rounds[k].first == first
}

// expire times out the round opened at lo under first: every slot whose
// probe is still in flight becomes NilRef.
func (t *fingerTable) expire(lo int, first uint64) {
	k := t.round(uint8(lo))
	if k < 0 || t.rounds[k].first != first {
		return
	}
	open := t.rounds[k].open
	t.rounds = slices.Delete(t.rounds, k, k+1)
	for ; open != 0; open &= open - 1 {
		t.set(lo+bits.TrailingZeros8(open), NilRef)
	}
}
