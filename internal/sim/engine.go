// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every overlay in this repository runs on: it
// replaces the NS2 simulator used in the paper. Events are ordered by
// (time, sequence-number) so two runs with the same seed and the same
// schedule of calls produce byte-identical traces. There is no wall clock
// anywhere: simulated time only advances when the engine dispatches the next
// event.
package sim

import (
	"fmt"
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
type Event struct {
	at    Time
	seq   uint64
	index int // heap index, -1 once removed
	epoch uint32
	fn    func()
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
	seq        uint64
	queue      eventQueue
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
func (e *Engine) Pending() int { return len(e.queue.items) }

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
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.queue.push(ev)
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
	ev := h.ev
	e.queue.remove(ev.index)
	e.recycle(ev)
	return true
}

// recycle retires an event struct: the epoch bump invalidates every
// outstanding handle to it, and the callback reference is dropped so the
// closure can be collected.
func (e *Engine) recycle(ev *Event) {
	ev.epoch++
	ev.fn = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// Step dispatches the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.queue.items) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.dispatched++
	fn := ev.fn
	// Recycle before running: fn may schedule new events and reuse the
	// struct immediately; stale handles are fenced off by the epoch bump.
	e.recycle(ev)
	fn()
	return true
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue.items) > 0 && e.queue.items[0].at <= t {
		e.Step()
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

// eventQueue is a binary min-heap over (time, seq), implemented inline
// (mirroring topology's distHeap) so scheduling involves no interface
// boxing or indirect Less/Swap calls.
type eventQueue struct {
	items []*Event
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}

func (q *eventQueue) push(ev *Event) {
	ev.index = len(q.items)
	q.items = append(q.items, ev)
	q.up(ev.index)
}

func (q *eventQueue) pop() *Event {
	top := q.items[0]
	last := len(q.items) - 1
	q.swap(0, last)
	q.items[last] = nil
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	top.index = -1
	return top
}

// remove deletes the item at heap index i.
func (q *eventQueue) remove(i int) {
	last := len(q.items) - 1
	if i != last {
		q.swap(i, last)
	}
	q.items[last].index = -1
	q.items[last] = nil
	q.items = q.items[:last]
	if i < last {
		if !q.up(i) {
			q.down(i)
		}
	}
}

// up sifts the item at i toward the root; reports whether it moved.
func (q *eventQueue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts the item at i toward the leaves.
func (q *eventQueue) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.items) && q.less(l, small) {
			small = l
		}
		if r < len(q.items) && q.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}
