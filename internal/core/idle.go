package core

import "repro/internal/runtime"

// idleTable is soft state that expires when unused: every entry carries an
// idle timer that deletes it one TTL after its last put or get. The
// surrogate cache and the bypass links are each one idleTable. The zero
// value is an empty table; nothing is allocated until the first put, so a
// feature that is off costs its peer a nil map.
type idleTable[K comparable, V any] map[K]*idleEntry[V]

type idleEntry[V any] struct {
	val   V
	timer *runtime.Timer
}

// put stores v under k and (re)starts the entry's idle timer.
func (t *idleTable[K, V]) put(clk runtime.Clock, ttl runtime.Time, k K, v V) {
	if e, ok := (*t)[k]; ok {
		e.val = v
		e.timer.Start()
		return
	}
	if *t == nil {
		*t = make(idleTable[K, V])
	}
	m := *t
	e := &idleEntry[V]{val: v}
	e.timer = runtime.NewTimer(clk, ttl, func() { delete(m, k) })
	e.timer.Start()
	m[k] = e
}

// get returns the value under k and restarts its idle timer: a use.
func (t idleTable[K, V]) get(k K) (v V, ok bool) {
	if e, ok := t[k]; ok {
		e.timer.Start()
		return e.val, true
	}
	return v, false
}

// peek returns the value under k without counting as a use.
func (t idleTable[K, V]) peek(k K) (v V, ok bool) {
	if e, ok := t[k]; ok {
		return e.val, true
	}
	return v, false
}

// drop removes k and disarms its timer.
func (t idleTable[K, V]) drop(k K) {
	if e, ok := t[k]; ok {
		e.timer.Stop()
		delete(t, k)
	}
}

// stopAll disarms every timer and leaves the entries in place; Peer.stop
// calls it so a dead peer keeps nothing scheduled.
func (t idleTable[K, V]) stopAll() {
	for _, e := range t {
		e.timer.Stop()
	}
}
