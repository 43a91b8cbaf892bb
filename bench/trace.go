package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// agg is a call count and a total duration.
type agg struct {
	n  int64
	ns int64
}

func (a *agg) add(d time.Duration) { a.n++; a.ns += int64(d) }

func (a *agg) merge(b agg) { a.n += b.n; a.ns += b.ns }

// per is the mean duration per call in nanoseconds (0 with no calls).
func (a agg) per() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n)
}

// span is one timed interval of the kv request path. Client spans carry the
// request id; runtime spans ("do", "await") are matched to the client span on
// the same server that contains them when the trace is written.
type span struct {
	id     int
	name   string
	rt     int // index of the server/runtime the span ran on
	start  time.Time
	end    time.Time
	parent int
}

// traceRec is the recorder shared by every tracingRuntime of one traced
// repetition. Recording is switched on for the measured window only, so
// set-up traffic never reaches the aggregates.
type traceRec struct {
	on atomic.Bool

	// mu guards what caller goroutines (HTTP handlers, the driver) write:
	// Do and Await are entered outside the execution guarantee.
	mu        sync.Mutex
	doWait    agg // Do called -> fn starts: the wait for the executor lock
	doTotal   agg // Do called -> Do returns
	await     agg
	keepSpans bool
	spans     []span
}

// record switches recording on or off; a nil recorder (an untraced
// repetition) ignores it.
func (r *traceRec) record(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *traceRec) recordDo(rt int, called, end time.Time, wait time.Duration) {
	r.mu.Lock()
	r.doWait.add(wait)
	r.doTotal.add(end.Sub(called))
	if r.keepSpans {
		r.spans = append(r.spans, span{name: "do", rt: rt, start: called, end: end})
	}
	r.mu.Unlock()
}

func (r *traceRec) recordAwait(rt int, start, end time.Time) {
	r.mu.Lock()
	r.await.add(end.Sub(start))
	if r.keepSpans {
		r.spans = append(r.spans, span{name: "await", rt: rt, start: start, end: end})
	}
	r.mu.Unlock()
}

// layerTotals is what one tracingRuntime accumulates. Every field is touched
// only under the wrapped runtime's execution guarantee (inside a handler, a
// timer callback or Do), which serialises all of them, so none needs a lock.
type layerTotals struct {
	handler    agg // Recv self time, per delivery
	timer      agg // Schedule callback self time, per firing
	doRun      agg // Do fn self time
	send       agg // inside Transport.Send
	sendLocal  agg
	schedule   agg // inside Clock.Schedule
	unschedule agg
	cancelled  int64 // Unschedule calls that removed a pending firing
	byType     map[reflect.Type]*agg
}

func (a *layerTotals) merge(b *layerTotals) {
	a.handler.merge(b.handler)
	a.timer.merge(b.timer)
	a.doRun.merge(b.doRun)
	a.send.merge(b.send)
	a.sendLocal.merge(b.sendLocal)
	a.schedule.merge(b.schedule)
	a.unschedule.merge(b.unschedule)
	a.cancelled += b.cancelled
	for t, g := range b.byType {
		if a.byType == nil {
			a.byType = make(map[reflect.Type]*agg)
		}
		if a.byType[t] == nil {
			a.byType[t] = new(agg)
		}
		a.byType[t].merge(*g)
	}
}

// events is how many executor dispatches were timed: deliveries plus timer
// firings, the wall-clock analogue of the DES engine's event count.
func (a *layerTotals) events() int64 { return a.handler.n + a.timer.n }

// busyNs is the time attributed to a layer; the rest of the traced wall time
// is the engine (DES) or idle and HTTP time (kv).
func (a *layerTotals) busyNs() int64 {
	return a.handler.ns + a.timer.ns + a.doRun.ns + a.send.ns + a.sendLocal.ns + a.schedule.ns + a.unschedule.ns
}

// maxSamples bounds the messages kept for the codec probe.
const maxSamples = 4096

// tracingRuntime implements runtime.Runtime by delegating to a real runtime
// and timing every crossing of the core/runtime boundary from outside: it is
// what core.NewSystem receives in a traced repetition, so no program file
// changes. Untraced repetitions never construct one.
//
// Durations become self time with a plain stack: the executor runs one
// handler, callback or Do body at a time, each pushes a frame, and every
// nested Send/Schedule/Unschedule adds its duration to the frame on top,
// which is subtracted once when the frame is popped.
type tracingRuntime struct {
	runtime.Runtime
	rec *traceRec
	id  int

	layerTotals
	stack   []time.Duration // child time per open frame
	pending int64           // timers scheduled and neither fired nor cancelled

	// samples is a strided sample of sent messages: when full, every other
	// one is dropped and the stride doubles, so it stays spread over the run.
	samples []any
	stride  int64
	sent    int64
}

func newTracingRuntime(inner runtime.Runtime, rec *traceRec, id int) *tracingRuntime {
	return &tracingRuntime{Runtime: inner, rec: rec, id: id, stride: 1}
}

func (t *tracingRuntime) enter() time.Time {
	t.stack = append(t.stack, 0)
	return time.Now()
}

// exit pops the frame opened at start and returns its self time.
func (t *tracingRuntime) exit(start time.Time) time.Duration {
	dur := time.Since(start)
	top := len(t.stack) - 1
	self := dur - t.stack[top]
	t.stack = t.stack[:top]
	t.leaf(dur)
	return self
}

// leaf charges a nested call's duration to the enclosing frame, if any.
func (t *tracingRuntime) leaf(d time.Duration) {
	if top := len(t.stack) - 1; top >= 0 {
		t.stack[top] += d
	}
}

type tracedHandler struct {
	t *tracingRuntime
	h runtime.Handler
}

func (w *tracedHandler) Recv(from runtime.Addr, msg any) {
	t := w.t
	if !t.rec.on.Load() {
		w.h.Recv(from, msg)
		return
	}
	start := t.enter()
	w.h.Recv(from, msg)
	self := t.exit(start)
	t.handler.add(self)
	typ := reflect.TypeOf(msg)
	g := t.byType[typ]
	if g == nil {
		if t.byType == nil {
			t.byType = make(map[reflect.Type]*agg)
		}
		g = new(agg)
		t.byType[typ] = g
	}
	g.add(self)
}

func (t *tracingRuntime) Attach(a runtime.Addr, ep runtime.Endpoint, h runtime.Handler) {
	t.Runtime.Attach(a, ep, &tracedHandler{t: t, h: h})
}

func (t *tracingRuntime) Send(from, to runtime.Addr, size int, msg any) {
	if !t.rec.on.Load() {
		t.Runtime.Send(from, to, size, msg)
		return
	}
	start := time.Now()
	t.Runtime.Send(from, to, size, msg)
	d := time.Since(start)
	t.send.add(d)
	t.leaf(d)
	if t.sent%t.stride == 0 {
		if len(t.samples) == maxSamples {
			for i := 0; i < maxSamples/2; i++ {
				t.samples[i] = t.samples[2*i]
			}
			t.samples = t.samples[:maxSamples/2]
			t.stride *= 2
		}
		if t.sent%t.stride == 0 {
			t.samples = append(t.samples, msg)
		}
	}
	t.sent++
}

func (t *tracingRuntime) SendLocal(a runtime.Addr, msg any) {
	if !t.rec.on.Load() {
		t.Runtime.SendLocal(a, msg)
		return
	}
	start := time.Now()
	t.Runtime.SendLocal(a, msg)
	d := time.Since(start)
	t.sendLocal.add(d)
	t.leaf(d)
}

func (t *tracingRuntime) Schedule(d runtime.Time, fn func()) runtime.Handle {
	t.pending++
	wrapped := func() {
		t.pending--
		if !t.rec.on.Load() {
			fn()
			return
		}
		start := t.enter()
		fn()
		t.timer.add(t.exit(start))
	}
	if !t.rec.on.Load() {
		return t.Runtime.Schedule(d, wrapped)
	}
	start := time.Now()
	h := t.Runtime.Schedule(d, wrapped)
	dur := time.Since(start)
	t.schedule.add(dur)
	t.leaf(dur)
	return h
}

func (t *tracingRuntime) Unschedule(h runtime.Handle) bool {
	if !t.rec.on.Load() {
		ok := t.Runtime.Unschedule(h)
		if ok {
			t.pending--
		}
		return ok
	}
	start := time.Now()
	ok := t.Runtime.Unschedule(h)
	d := time.Since(start)
	t.unschedule.add(d)
	t.leaf(d)
	if ok {
		t.pending--
		t.cancelled++
	}
	return ok
}

func (t *tracingRuntime) Do(fn func()) {
	if !t.rec.on.Load() {
		t.Runtime.Do(fn)
		return
	}
	called := time.Now()
	var wait time.Duration
	t.Runtime.Do(func() {
		start := t.enter()
		wait = start.Sub(called)
		fn()
		t.doRun.add(t.exit(start))
	})
	t.rec.recordDo(t.id, called, time.Now(), wait)
}

func (t *tracingRuntime) Await(cond func() bool) error {
	if !t.rec.on.Load() {
		return t.Runtime.Await(cond)
	}
	start := time.Now()
	err := t.Runtime.Await(cond)
	t.rec.recordAwait(t.id, start, time.Now())
	return err
}

// snapshot reads the totals under the execution guarantee.
func (t *tracingRuntime) snapshot() (tot layerTotals, pending int64, samples []any) {
	t.Runtime.Do(func() {
		tot = t.layerTotals
		tot.byType = make(map[reflect.Type]*agg, len(t.byType))
		for typ, g := range t.byType {
			c := *g
			tot.byType[typ] = &c
		}
		pending = t.pending
		samples = append([]any(nil), t.samples...)
	})
	return tot, pending, samples
}

// traceLine is one record of bench/out/trace-<workload>.jsonl: a span of a
// kv request, or a per-message-type aggregate of a DES run (which dispatches
// ~10^7 events, far too many to keep one by one).
type traceLine struct {
	ID      int    `json:"id,omitempty"`
	Name    string `json:"name"`
	Parent  int    `json:"parent,omitempty"`
	RT      int    `json:"rt,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	EndNs   int64  `json:"end_ns,omitempty"`
	Count   int64  `json:"count,omitempty"`
	SelfNs  int64  `json:"self_ns,omitempty"`
}

// linkSpans gives every runtime span an id and the client span that caused
// it: the one on the same server whose interval contains it. At most two
// requests are in flight, so when both are on one server either parent is a
// fair attribution; the earliest-starting one is taken.
func linkSpans(clients, runtimeSpans []span) []span {
	sort.Slice(clients, func(i, j int) bool { return clients[i].start.Before(clients[j].start) })
	sort.Slice(runtimeSpans, func(i, j int) bool { return runtimeSpans[i].start.Before(runtimeSpans[j].start) })
	out := append([]span(nil), clients...)
	next := 0
	for _, c := range clients {
		if c.id >= next {
			next = c.id + 1
		}
	}
	lo := 0
	for _, s := range runtimeSpans {
		for lo < len(clients) && clients[lo].end.Before(s.start) {
			lo++
		}
		for i := lo; i < len(clients) && !clients[i].start.After(s.start); i++ {
			if c := clients[i]; c.rt == s.rt && !c.end.Before(s.end) {
				s.parent = c.id
				break
			}
		}
		s.id = next
		next++
		out = append(out, s)
	}
	return out
}

// writeTrace writes the workload's trace file and returns its path.
func writeTrace(dir, workload string, origin time.Time, spans []span, tot *layerTotals) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, s := range spans {
		line := traceLine{ID: s.id, Name: s.name, Parent: s.parent, RT: s.rt,
			StartNs: int64(s.start.Sub(origin)), EndNs: int64(s.end.Sub(origin))}
		if err := enc.Encode(line); err != nil {
			return "", err
		}
	}
	types := make([]reflect.Type, 0, len(tot.byType))
	for t := range tot.byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return tot.byType[types[i]].ns > tot.byType[types[j]].ns })
	for _, t := range types {
		g := tot.byType[t]
		if err := enc.Encode(traceLine{Name: "recv:" + t.String(), Count: g.n, SelfNs: g.ns}); err != nil {
			return "", err
		}
	}
	for _, l := range []struct {
		name string
		g    agg
	}{
		{"timer", tot.timer}, {"do", tot.doRun}, {"send", tot.send}, {"send_local", tot.sendLocal},
		{"schedule", tot.schedule}, {"unschedule", tot.unschedule},
	} {
		if err := enc.Encode(traceLine{Name: l.name, Count: l.g.n, SelfNs: l.g.ns}); err != nil {
			return "", err
		}
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
