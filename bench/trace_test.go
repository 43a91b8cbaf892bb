package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/simnet"
)

// fakeRuntime is the least runtime the wrapper's arithmetic needs: Send and
// Schedule take a known time, Do is a plain call. Anything else would hit
// the nil embedded interface and panic.
type fakeRuntime struct {
	runtime.Runtime
	sendTakes time.Duration
	handler   runtime.Handler
	scheduled func()
	handle    runtime.Handle
}

func (f *fakeRuntime) Attach(_ runtime.Addr, _ runtime.Endpoint, h runtime.Handler) { f.handler = h }
func (f *fakeRuntime) Send(_, _ runtime.Addr, _ int, _ any)                         { time.Sleep(f.sendTakes) }
func (f *fakeRuntime) Schedule(_ runtime.Time, fn func()) runtime.Handle {
	f.scheduled = fn
	return f.handle
}
func (f *fakeRuntime) Unschedule(runtime.Handle) bool { return true }
func (f *fakeRuntime) Do(fn func())                   { fn() }

func TestSelfTimeSubtractsNestedSendOnce(t *testing.T) {
	const sendTakes, ownWork = 4 * time.Millisecond, 2 * time.Millisecond
	inner := &fakeRuntime{sendTakes: sendTakes}
	rec := &traceRec{}
	rec.on.Store(true)
	tr := newTracingRuntime(inner, rec, 0)
	tr.Attach(1, runtime.Endpoint{}, runtime.HandlerFunc(func(from runtime.Addr, msg any) {
		time.Sleep(ownWork)
		tr.Send(1, 2, 0, msg)
	}))

	start := time.Now()
	inner.handler.Recv(2, pingMsg{})
	elapsed := time.Since(start)

	if tr.handler.n != 1 || tr.send.n != 1 {
		t.Fatalf("counted %d deliveries and %d sends, want 1 and 1", tr.handler.n, tr.send.n)
	}
	send, self := time.Duration(tr.send.ns), time.Duration(tr.handler.ns)
	if send < sendTakes {
		t.Errorf("send time %v below the %v the send took", send, sendTakes)
	}
	if self < ownWork {
		t.Errorf("handler self time %v below its own %v of work: the send was subtracted more than once", self, ownWork)
	}
	if self+send > elapsed {
		t.Errorf("self %v + send %v exceed the %v the delivery took: the send was not subtracted", self, send, elapsed)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d frames left open", len(tr.stack))
	}
	if g := tr.byType[reflect.TypeOf(pingMsg{})]; g == nil || g.n != 1 {
		t.Error("delivery not attributed to its message type")
	}
}

func TestTimerCallbackSelfTimeAndPending(t *testing.T) {
	inner := &fakeRuntime{sendTakes: 3 * time.Millisecond}
	rec := &traceRec{}
	rec.on.Store(true)
	tr := newTracingRuntime(inner, rec, 0)
	tr.Schedule(10, func() { tr.Send(1, 2, 0, pingMsg{}) })
	if tr.pending != 1 {
		t.Fatalf("pending = %d after Schedule, want 1", tr.pending)
	}
	inner.scheduled()
	if tr.pending != 0 || tr.timer.n != 1 {
		t.Fatalf("pending = %d, firings = %d after the callback ran", tr.pending, tr.timer.n)
	}
	if self := time.Duration(tr.timer.ns); self >= inner.sendTakes {
		t.Errorf("callback self time %v includes the nested %v send", self, inner.sendTakes)
	}
	tr.Schedule(10, func() {})
	if !tr.Unschedule(runtime.Handle{}) || tr.pending != 0 || tr.cancelled != 1 {
		t.Errorf("after a cancel: pending = %d, cancelled = %d", tr.pending, tr.cancelled)
	}
}

func TestHandlesPassThrough(t *testing.T) {
	type impl struct{ x int }
	want := runtime.MakeHandle(&impl{1}, 7)
	for _, on := range []bool{false, true} {
		inner := &fakeRuntime{handle: want}
		rec := &traceRec{}
		rec.on.Store(on)
		if got := newTracingRuntime(inner, rec, 0).Schedule(5, func() {}); got != want {
			t.Errorf("recording=%v: Schedule returned %v, want the inner runtime's handle %v", on, got, want)
		}
	}
}

func TestRecordingOffTimesNothing(t *testing.T) {
	inner := &fakeRuntime{}
	tr := newTracingRuntime(inner, &traceRec{}, 0)
	tr.Attach(1, runtime.Endpoint{}, runtime.HandlerFunc(func(runtime.Addr, any) { tr.Send(1, 2, 0, pingMsg{}) }))
	inner.handler.Recv(2, pingMsg{})
	tr.Do(func() {})
	if tr.events() != 0 || tr.send.n != 0 || tr.rec.doTotal.n != 0 || len(tr.samples) != 0 {
		t.Error("set-up traffic reached the aggregates while recording was off")
	}
}

// TestUntracedRunHasNoWrapper: with tracing off the wrapper is not installed
// at all, so end-to-end numbers are those of the program alone.
func TestUntracedRunHasNoWrapper(t *testing.T) {
	d, err := buildDES(1, 12, desConfig(0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.sys.Runtime().(*simnet.Runtime); !ok || d.traced != nil {
		t.Errorf("untraced system runs on %T", d.sys.Runtime())
	}
	d, err = buildDES(1, 12, desConfig(0.5), &traceRec{})
	if err != nil {
		t.Fatal(err)
	}
	if rt, ok := d.sys.Runtime().(*tracingRuntime); !ok || rt != d.traced {
		t.Errorf("traced system runs on %T", d.sys.Runtime())
	}
}

func TestLinkSpans(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	clients := []span{
		{id: 1, name: "GET", rt: 0, start: at(0), end: at(10)},
		{id: 2, name: "GET", rt: 1, start: at(1), end: at(9)},
	}
	rts := []span{
		{name: "await", rt: 1, start: at(2), end: at(8)},
		{name: "do", rt: 0, start: at(1), end: at(2)},
		{name: "await", rt: 2, start: at(3), end: at(4)}, // no request on that server
	}
	parent := map[string]int{}
	ids := map[int]bool{}
	for _, s := range linkSpans(clients, rts) {
		if ids[s.id] {
			t.Errorf("span id %d used twice", s.id)
		}
		ids[s.id] = true
		if s.name != "GET" {
			parent[s.name+string(rune('0'+s.rt))] = s.parent
		}
	}
	if parent["do0"] != 1 || parent["await1"] != 2 || parent["await2"] != 0 {
		t.Errorf("parents = %v", parent)
	}
}
