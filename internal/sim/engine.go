// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every overlay in this repository runs on: it
// replaces the NS2 simulator used in the paper. Events are ordered by time,
// then by scheduling order, so two runs with the same seed and the same
// schedule of calls produce byte-identical traces. There is no wall clock
// anywhere: simulated time only advances when the engine dispatches the next
// event. Pending events sit in a monotone radix heap: scheduling and
// cancelling are O(1), and a timer parked seconds ahead is not touched by
// the pops that pass it.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/runtime"
)

// Time is a simulated timestamp in microseconds since the start of the run.
// It is an alias for runtime.Time: the engine is one implementation of the
// runtime.Clock the protocol is written against, and sharing the type means
// no conversions anywhere on the boundary.
type Time = runtime.Time

// Common durations, expressed in simulated microseconds.
const (
	Microsecond = runtime.Microsecond
	Millisecond = runtime.Millisecond
	Second      = runtime.Second
)

// Event is a scheduled callback slot. Event structs are pooled: once an
// event fires or is cancelled, its struct is recycled for a later schedule.
// Protocol code therefore never holds a *Event directly; it holds a Handle,
// whose epoch check makes operations on an already-recycled event no-ops.
//
// While pending, an event is linked into one bucket of the engine's radix
// heap; prev and next are its neighbours there.
type Event struct {
	at         Time
	prev, next *Event
	epoch      uint32
	fn         func()
}

// Handle refers to one scheduled firing of an event. The zero Handle is
// valid and refers to nothing: Cancel, Pending and At on it are no-ops.
// Handles are cheap values; store them instead of pointers.
type Handle struct {
	ev    *Event
	epoch uint32
}

// Pending reports whether the firing this handle refers to is still
// scheduled (not yet dispatched or cancelled).
func (h Handle) Pending() bool { return h.ev != nil && h.ev.epoch == h.epoch }

// At reports the time the firing is scheduled for, or 0 if the handle is
// stale or zero.
func (h Handle) At() Time {
	if h.Pending() {
		return h.ev.at
	}
	return 0
}

// Engine is a single-threaded discrete-event scheduler.
//
// An Engine is not safe for concurrent use; all protocol code in this
// repository runs inside event callbacks, which the engine dispatches one at
// a time. This mirrors the run-to-completion semantics of NS2 and keeps the
// simulations deterministic without any locking. Parallel experiment sweeps
// run one Engine per sweep point, never sharing an Engine across goroutines.
type Engine struct {
	now        Time
	events     radixHeap
	free       []*Event // recycled Event structs
	rng        *rand.Rand
	dispatched uint64
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Dispatched returns the number of events executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.events.n }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a protocol bug, never a recoverable condition.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.fn = fn
	e.events.push(ev)
	return Handle{ev: ev, epoch: ev.epoch}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled firing. Cancelling a zero handle, or one whose
// event already fired or was already cancelled, is a no-op; it reports
// whether this call actually removed a pending event.
func (e *Engine) Cancel(h Handle) bool {
	if !h.Pending() {
		return false
	}
	e.events.remove(h.ev)
	e.recycle(h.ev)
	return true
}

// recycle retires an event struct: the epoch bump invalidates every
// outstanding handle to it, and the callback reference is dropped so the
// closure can be collected.
func (e *Engine) recycle(ev *Event) {
	ev.epoch++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Step dispatches the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	ev := e.events.popUntil(math.MaxInt64)
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// dispatch runs a popped event.
func (e *Engine) dispatch(ev *Event) {
	e.now = ev.at
	e.dispatched++
	fn := ev.fn
	// Recycle before running: fn may schedule new events and reuse the
	// struct immediately; stale handles are fenced off by the epoch bump.
	e.recycle(ev)
	fn()
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for ev := e.events.popUntil(t); ev != nil; ev = e.events.popUntil(t) {
		e.dispatch(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// Schedule implements runtime.Clock in terms of After. The returned
// runtime.Handle boxes the pooled *Event plus its epoch, so scheduling
// through the interface stays allocation-free.
func (e *Engine) Schedule(d Time, fn func()) runtime.Handle {
	h := e.After(d, fn)
	return runtime.MakeHandle(h.ev, h.epoch)
}

// Unschedule implements runtime.Clock; it is Cancel for handles issued by
// Schedule. Handles from other clocks (or the zero Handle) are no-ops.
func (e *Engine) Unschedule(h runtime.Handle) bool {
	ev, ok := h.Impl().(*Event)
	if !ok {
		return false
	}
	return e.Cancel(Handle{ev: ev, epoch: h.Epoch()})
}

// Scheduled implements runtime.Clock; it reports whether the firing h refers
// to is still pending on this engine.
func (e *Engine) Scheduled(h runtime.Handle) bool {
	ev, ok := h.Impl().(*Event)
	if !ok {
		return false
	}
	return (Handle{ev: ev, epoch: h.Epoch()}).Pending()
}

// radixHeap is a monotone radix heap over time, then scheduling order
// (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990). Engine time never goes
// backwards, so every pending event is at or after last, the time of the
// last extracted minimum, and sits in bucket bits.Len64(at ^ last): bucket 0
// holds the events at exactly last, bucket b those whose time first differs
// from last in bit b-1. Raising last to the minimum of the lowest non-empty
// bucket moves that bucket's events to strictly lower buckets and leaves
// every higher bucket correct, so a timer parked seconds ahead is touched
// O(log Δt) times in its life instead of on every pop.
//
// Buckets are intrusive doubly linked lists through Event, so push and
// remove are O(1) and nothing grows with the number pending; an event's
// bucket is always bucketOf(at), so it is not stored. Events of one
// time always share a bucket and move together in list order, so each list
// keeps them in scheduling order: bucket 0 is the FIFO of the current
// instant.
type radixHeap struct {
	last     Time
	n        int
	occupied uint64 // bit b is set iff buckets[b] is non-empty
	buckets  [64]eventList
}

type eventList struct{ head, tail *Event }

func (h *radixHeap) push(ev *Event) {
	h.link(ev, h.bucketOf(ev.at))
	h.n++
}

func (h *radixHeap) bucketOf(at Time) int { return bits.Len64(uint64(at ^ h.last)) }

// link appends ev to bucket b.
func (h *radixHeap) link(ev *Event, b int) {
	l := &h.buckets[b]
	ev.prev, ev.next = l.tail, nil
	if l.tail == nil {
		l.head = ev
		h.occupied |= 1 << b
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

func (h *radixHeap) remove(ev *Event) {
	b := h.bucketOf(ev.at)
	l := &h.buckets[b]
	if ev.prev == nil {
		l.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		l.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if l.head == nil {
		h.occupied &^= 1 << b
	}
	ev.prev, ev.next = nil, nil
	h.n--
}

// popUntil removes and returns the earliest event if it is due at or before
// limit. Otherwise it returns nil and leaves last where it was, so last never
// passes the engine's clock and an event scheduled at any t >= now still
// has a bucket.
func (h *radixHeap) popUntil(limit Time) *Event {
	if h.occupied == 0 {
		return nil
	}
	if h.occupied&1 == 0 {
		b := bits.TrailingZeros64(h.occupied)
		l := &h.buckets[b]
		least := l.head.at
		for ev := l.head.next; ev != nil; ev = ev.next {
			if ev.at < least {
				least = ev.at
			}
		}
		if least > limit {
			return nil
		}
		h.last = least
		ev := l.head
		*l = eventList{}
		h.occupied &^= 1 << b
		for ev != nil {
			next := ev.next
			h.link(ev, h.bucketOf(ev.at))
			ev = next
		}
	}
	ev := h.buckets[0].head
	if ev.at > limit {
		return nil
	}
	h.remove(ev)
	return ev
}
