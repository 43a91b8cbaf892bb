package runtime

// Timer is a restartable one-shot timer driven by a Clock. It implements the
// timer idioms the paper's protocols need: HELLO timeouts that are reset
// whenever a heartbeat arrives, lookup timers that expire into a failure
// handler, and suppress timers that gate acknowledgment traffic.
//
// The zero value is not usable; create timers with NewTimer. A Timer has the
// same concurrency contract as the protocol state it guards: all calls must
// be made under the runtime's execution guarantee (inside a handler, a
// callback, or Runtime.Do).
type Timer struct {
	clk    Clock
	d      Time
	fn     func()
	run    func() // the expiry thunk, bound once at construction
	ev     Handle
	active bool
}

// NewTimer returns a stopped timer that runs fn after d once started.
func NewTimer(clk Clock, d Time, fn func()) *Timer {
	t := &Timer{clk: clk, d: d, fn: fn}
	// Bind the expiry thunk once: HELLO watchdogs are reset on every
	// heartbeat, and allocating a fresh closure per (re)arm puts timer
	// maintenance on the allocation profile of every simulated second.
	t.run = func() {
		t.active = false
		t.ev = Handle{}
		t.fn()
	}
	return t
}

// Start arms the timer with its default duration. Starting an armed timer
// restarts it; this matches the paper's semantics where any HELLO or
// acknowledgment re-arms the neighbor's failure detector.
func (t *Timer) Start() {
	t.StartAfter(t.d)
}

// StartAfter arms the timer with an explicit duration, overriding the default
// for this firing only.
func (t *Timer) StartAfter(d Time) {
	t.Stop()
	t.active = true
	t.ev = t.clk.Schedule(d, t.run)
}

// Stop disarms the timer if it is armed.
func (t *Timer) Stop() {
	t.clk.Unschedule(t.ev)
	t.ev = Handle{}
	t.active = false
}

// Active reports whether the timer is armed.
func (t *Timer) Active() bool { return t.active }

// Ticker invokes a callback at a fixed period until stopped. It is used for
// periodic protocol maintenance: finger refresh and HELLO broadcasts.
type Ticker struct {
	clk    Clock
	period Time
	fn     func()
	run    func() // the tick thunk, bound once at construction
	ev     Handle
}

// NewTicker returns a stopped ticker with the given period.
func NewTicker(clk Clock, period Time, fn func()) *Ticker {
	t := &Ticker{clk: clk, period: period, fn: fn}
	// One closure for the ticker's whole lifetime instead of one per tick;
	// every peer runs a HELLO ticker forever, so per-tick closures dominate
	// steady-state maintenance allocations.
	t.run = func() {
		t.schedule()
		t.fn()
	}
	return t
}

// Start begins periodic firing one period from now.
func (t *Ticker) Start() {
	t.Stop()
	t.schedule()
}

func (t *Ticker) schedule() {
	t.ev = t.clk.Schedule(t.period, t.run)
}

// Stop halts the ticker.
func (t *Ticker) Stop() {
	t.clk.Unschedule(t.ev)
	t.ev = Handle{}
}
