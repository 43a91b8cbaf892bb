package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/runtime"
)

func TestEngineOrdering(t *testing.T) {
	eng := New(1)
	var got []int
	eng.At(30, func() { got = append(got, 3) })
	eng.At(10, func() { got = append(got, 1) })
	eng.At(20, func() { got = append(got, 2) })
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if eng.Now() != 30 {
		t.Fatalf("clock = %v, want 30", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		eng.At(5, func() { got = append(got, i) })
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: position %d has %d", i, v)
		}
	}
}

func TestEngineSchedulingInsideEvents(t *testing.T) {
	eng := New(1)
	var order []string
	eng.At(10, func() {
		order = append(order, "a")
		eng.After(5, func() { order = append(order, "c") })
		eng.At(12, func() { order = append(order, "b") })
	})
	eng.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	eng := New(1)
	fired := false
	ev := eng.At(10, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("scheduled event not pending")
	}
	if !eng.Cancel(ev) {
		t.Fatal("cancel of a pending event reported false")
	}
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled handle still pending")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	if eng.Cancel(ev) {
		t.Fatal("double-cancel reported true")
	}
	if eng.Cancel(Handle{}) {
		t.Fatal("zero-handle cancel reported true")
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	eng := New(1)
	var got []int
	var evs []Handle
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, eng.At(Time(i), func() { got = append(got, i) }))
	}
	eng.Cancel(evs[3])
	eng.Cancel(evs[7])
	eng.Run()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

// TestStaleHandleCancelIsHarmless pins the pooling contract: once an event
// fires, its struct may be reused by a later schedule, and cancelling the old
// handle must not touch the new event.
func TestStaleHandleCancelIsHarmless(t *testing.T) {
	eng := New(1)
	first := eng.At(1, func() {})
	eng.Run()
	if first.Pending() {
		t.Fatal("fired handle still pending")
	}
	fired := false
	second := eng.At(10, func() { fired = true })
	if eng.Cancel(first) {
		t.Fatal("stale cancel reported success")
	}
	eng.Run()
	if !fired {
		t.Fatal("stale cancel killed a recycled event")
	}
	if second.Pending() {
		t.Fatal("fired second handle still pending")
	}
}

// TestEventPoolReuse verifies fired events are recycled instead of
// reallocated.
func TestEventPoolReuse(t *testing.T) {
	eng := New(1)
	for i := 0; i < 100; i++ {
		eng.After(1, func() {})
		eng.Run()
	}
	if len(eng.free) == 0 {
		t.Fatal("free list empty after 100 fired events")
	}
	if got := len(eng.free); got > 2 {
		t.Fatalf("free list grew to %d; events are not being reused", got)
	}
}

// TestCancelMiddleOfHeap exercises heap removal from interior positions.
func TestCancelMiddleOfHeap(t *testing.T) {
	eng := New(1)
	var fired []int
	var hs []Handle
	for i := 0; i < 64; i++ {
		i := i
		hs = append(hs, eng.At(Time((i*37)%64), func() { fired = append(fired, i) }))
	}
	for i := 0; i < 64; i += 3 {
		eng.Cancel(hs[i])
	}
	eng.Run()
	want := 0
	for i := 0; i < 64; i++ {
		if i%3 != 0 {
			want++
		}
	}
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
	for _, v := range fired {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestEnginePastPanics(t *testing.T) {
	eng := New(1)
	eng.At(10, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	eng.At(5, func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	eng := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	eng.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	eng := New(1)
	fired := 0
	eng.At(10, func() { fired++ })
	eng.At(20, func() { fired++ })
	eng.At(30, func() { fired++ })
	eng.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if eng.Now() != 20 {
		t.Fatalf("clock = %v, want 20", eng.Now())
	}
	eng.RunUntil(100)
	if fired != 3 || eng.Now() != 100 {
		t.Fatalf("fired=%d now=%v after RunUntil(100)", fired, eng.Now())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []int64 {
		eng := New(99)
		rng := eng.Rand()
		var trace []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, int64(eng.Now()))
			if depth >= 6 {
				return
			}
			kids := rng.Intn(3) + 1
			for i := 0; i < kids; i++ {
				eng.After(Time(rng.Intn(100)+1), func() { spawn(depth + 1) })
			}
		}
		eng.At(0, func() { spawn(0) })
		eng.Run()
		return trace
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestEventOrderProperty: for any set of scheduled times, dispatch order is
// the sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		eng := New(1)
		var fired []Time
		for _, ti := range times {
			at := Time(ti)
			eng.At(at, func() { fired = append(fired, at) })
		}
		eng.Run()
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// The Timer/Ticker tests below drive runtime.Timer and runtime.Ticker with
// the engine as their runtime.Clock: the DES is the one clock under which
// "fires at exactly t" can be asserted, so the only unit tests of that logic
// live beside the engine.

func TestTimerResetExtends(t *testing.T) {
	eng := New(1)
	fired := 0
	tm := runtime.NewTimer(eng, 100, func() { fired++ })
	tm.Start()
	eng.RunUntil(50)
	tm.Start() // restarts: now expires at 150
	eng.RunUntil(120)
	if fired != 0 {
		t.Fatal("timer fired before the reset deadline")
	}
	eng.RunUntil(200)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestTimerStop(t *testing.T) {
	eng := New(1)
	fired := 0
	tm := runtime.NewTimer(eng, 10, func() { fired++ })
	tm.Start()
	tm.Stop()
	eng.Run()
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer is active")
	}
}

func TestTimerStartAfterOverride(t *testing.T) {
	eng := New(1)
	var at Time
	tm := runtime.NewTimer(eng, 1000, func() { at = eng.Now() })
	tm.StartAfter(10)
	eng.Run()
	if at != 10 {
		t.Fatalf("fired at %v, want 10", at)
	}
}

func TestTimerRestart(t *testing.T) {
	eng := New(1)
	fired := 0
	tm := runtime.NewTimer(eng, 10, func() { fired++ })
	tm.Start()
	eng.Run()
	tm.Start()
	eng.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (timer is restartable)", fired)
	}
}

func TestTicker(t *testing.T) {
	eng := New(1)
	var times []Time
	tk := runtime.NewTicker(eng, 10, func() { times = append(times, eng.Now()) })
	tk.Start()
	eng.RunUntil(55)
	tk.Stop()
	eng.RunUntil(200)
	if len(times) != 5 {
		t.Fatalf("ticks = %d, want 5: %v", len(times), times)
	}
	for i, ti := range times {
		if ti != Time(10*(i+1)) {
			t.Fatalf("tick %d at %v", i, ti)
		}
	}
}

func TestTickerRestartResets(t *testing.T) {
	eng := New(1)
	ticks := 0
	tk := runtime.NewTicker(eng, 10, func() { ticks++ })
	tk.Start()
	eng.RunUntil(25)
	tk.Start() // restart re-phases the ticker
	eng.RunUntil(30)
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2 (restart at 25 pushes next tick to 35)", ticks)
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String = %q", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %v", got)
	}
}
