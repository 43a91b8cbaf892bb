package core

import (
	"cmp"
	"slices"

	"repro/internal/idspace"
)

// didSet is a set of entries keyed by data id, held in one slice sorted by
// DID. A peer's item sets are small — most hold fewer than ten entries — so
// a binary search over a slice costs no more than a map probe, takes about
// a third of a small map's bytes, and ranges in DID order: every batch a
// peer sends is already in the deterministic order the event sequence
// needs. The zero value is an empty set. Reads take the set by value, so
// an empty set stands in for one never allocated; writes take a pointer.
type didSet[E didKeyed] struct{ s []E }

// didKeyed is an entry of a didSet: it names its data id.
type didKeyed interface{ did() idspace.ID }

func (it Item) did() idspace.ID { return it.DID }

// search returns where did is or would be inserted, and whether it is there.
func (s didSet[E]) search(did idspace.ID) (int, bool) {
	return slices.BinarySearchFunc(s.s, did, func(e E, did idspace.ID) int { return cmp.Compare(e.did(), did) })
}

func (s didSet[E]) len() int { return len(s.s) }

// all returns the entries in DID order. The slice is the set's own: the
// caller must not keep it past the next write, nor write while ranging
// over it.
func (s didSet[E]) all() []E { return s.s }

// get returns the entry for did.
func (s didSet[E]) get(did idspace.ID) (E, bool) {
	if i, ok := s.search(did); ok {
		return s.s[i], true
	}
	var zero E
	return zero, false
}

func (s didSet[E]) has(did idspace.ID) bool {
	_, ok := s.search(did)
	return ok
}

// put inserts e, or overwrites the entry with its data id and returns the
// entry it replaced.
func (s *didSet[E]) put(e E) (old E, replaced bool) {
	i, ok := s.search(e.did())
	if ok {
		old, s.s[i] = s.s[i], e
		return old, true
	}
	s.s = slices.Insert(s.s, i, e)
	return old, false
}

// del removes and returns the entry for did.
func (s *didSet[E]) del(did idspace.ID) (E, bool) {
	i, ok := s.search(did)
	if !ok {
		var zero E
		return zero, false
	}
	e := s.s[i]
	s.s = slices.Delete(s.s, i, i+1)
	return e, true
}

// above returns the index of the first entry whose DID is past id.
func (s didSet[E]) above(id idspace.ID) int {
	i, ok := s.search(id)
	if ok {
		i++
	}
	return i
}

// cut removes and returns, in DID order, every entry whose DID lies in the
// clockwise interval (lo, hi] — the entries idspace.Between(lo, did, hi)
// admits, so lo == hi takes them all. The returned slice is the caller's.
func (s *didSet[E]) cut(lo, hi idspace.ID) []E {
	if lo == hi {
		out := s.s
		s.s = nil
		return out
	}
	a, b := s.above(lo), s.above(hi)
	if lo < hi {
		// (lo, hi] is the run s[a:b].
		if a == b {
			return nil
		}
		out := slices.Clone(s.s[a:b])
		s.s = slices.Delete(s.s, a, b)
		return out
	}
	// A wrapped interval is the two ends, s[:b] (DID <= hi) then s[a:]
	// (DID > lo), which together are still ascending; s[b:a] stays.
	if b == 0 && a == len(s.s) {
		return nil
	}
	out := make([]E, 0, b+len(s.s)-a)
	out = append(append(out, s.s[:b]...), s.s[a:]...)
	n := copy(s.s, s.s[b:a])
	clear(s.s[n:])
	s.s = s.s[:n]
	return out
}

// mergeItems returns the union of two DID-sorted batches in DID order; an
// id in both is taken once, from a. The result may be a itself, never b, so
// b may be a set's own slice.
func mergeItems(a, b []Item) []Item {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	out := make([]Item, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].DID < b[j].DID:
			out = append(out, a[i])
			i++
		case a[i].DID > b[j].DID:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
