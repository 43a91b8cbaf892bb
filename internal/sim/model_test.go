package sim

import (
	"math/rand"
	"testing"

	"repro/internal/runtime"
)

// The tests in this file hold the engine's queue to a reference model: a
// plain slice of pending events whose minimum by (at, seq) is found by a
// scan. Every schedule and cancel goes to both; every firing must be the
// model's minimum at the model's time.

type modelEvent struct {
	at  Time
	seq int
}

type modelRun struct {
	t       *testing.T
	eng     *Engine
	rng     *rand.Rand
	pending []modelEvent
	handles []Handle // by seq, every handle ever issued
	fired   int
}

func (m *modelRun) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf(format, args...)
}

// delay draws from a mix that covers every bucket regime: the current
// instant, a few microseconds, a message latency, a timer seconds ahead,
// and a jump far past anything else pending.
func (m *modelRun) delay() Time {
	switch m.rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return Time(m.rng.Intn(4))
	case 2:
		return Time(m.rng.Intn(1000))
	case 3:
		return Time(m.rng.Int63n(int64(20 * Second)))
	default:
		return Time(1) << m.rng.Intn(45)
	}
}

func (m *modelRun) schedule(at Time) {
	seq := len(m.handles)
	var h Handle
	if m.rng.Intn(2) == 0 {
		h = m.eng.At(at, func() { m.fire(seq) })
	} else {
		h = m.eng.After(at-m.eng.Now(), func() { m.fire(seq) })
	}
	m.handles = append(m.handles, h)
	m.pending = append(m.pending, modelEvent{at: at, seq: seq})
	if !h.Pending() || h.At() != at {
		m.fail("fresh handle %d: pending=%v at=%v, want at=%v", seq, h.Pending(), h.At(), at)
	}
}

// min returns the index in pending of the earliest event, or -1.
func (m *modelRun) min() int {
	best := -1
	for i, ev := range m.pending {
		if best < 0 || ev.at < m.pending[best].at ||
			ev.at == m.pending[best].at && ev.seq < m.pending[best].seq {
			best = i
		}
	}
	return best
}

func (m *modelRun) indexOf(seq int) int {
	for i, ev := range m.pending {
		if ev.seq == seq {
			return i
		}
	}
	return -1
}

func (m *modelRun) drop(i int) {
	m.pending[i] = m.pending[len(m.pending)-1]
	m.pending = m.pending[:len(m.pending)-1]
}

// cancel cancels one handle: a pending one, a stale one, or the zero
// Handle, and checks the engine agrees with the model on each.
func (m *modelRun) cancel() {
	h, seq := Handle{}, -1
	if len(m.handles) > 0 && m.rng.Intn(8) != 0 {
		if len(m.pending) > 0 && m.rng.Intn(2) == 0 {
			seq = m.pending[m.rng.Intn(len(m.pending))].seq
		} else {
			seq = m.rng.Intn(len(m.handles))
		}
		h = m.handles[seq]
	}
	i := -1
	if seq >= 0 {
		i = m.indexOf(seq)
	}
	if h.Pending() != (i >= 0) {
		m.fail("handle %d: Pending=%v, model pending=%v", seq, h.Pending(), i >= 0)
	}
	if i >= 0 && h.At() != m.pending[i].at {
		m.fail("handle %d: At=%v, model %v", seq, h.At(), m.pending[i].at)
	}
	if i < 0 && h.At() != 0 {
		m.fail("stale handle %d: At=%v, want 0", seq, h.At())
	}
	if got := m.eng.Cancel(h); got != (i >= 0) {
		m.fail("Cancel(handle %d) = %v, model pending=%v", seq, got, i >= 0)
	}
	if i >= 0 {
		m.drop(i)
	}
	if h.Pending() {
		m.fail("handle %d still pending after Cancel", seq)
	}
}

// fire is every event's callback. It checks the firing is the model's
// minimum, then sometimes schedules or cancels from inside the callback.
func (m *modelRun) fire(seq int) {
	i := m.min()
	if i < 0 {
		m.fail("event %d fired with nothing pending in the model", seq)
	}
	want := m.pending[i]
	if want.seq != seq || m.eng.Now() != want.at {
		m.fail("fired event %d at %v, model's next is %d at %v", seq, m.eng.Now(), want.seq, want.at)
	}
	m.drop(i)
	m.fired++
	switch m.rng.Intn(6) {
	case 0:
		m.schedule(m.eng.Now() + m.delay())
	case 1:
		m.cancel()
	case 2:
		m.schedule(m.eng.Now() + m.delay())
		m.cancel()
	}
}

func (m *modelRun) checkPending() {
	if m.eng.Pending() != len(m.pending) {
		m.fail("Pending() = %d, model has %d", m.eng.Pending(), len(m.pending))
	}
}

func (m *modelRun) step() {
	before := m.fired
	ran := m.eng.Step()
	if ran != (before < m.fired) {
		m.fail("Step reported %v but %d events fired", ran, m.fired-before)
	}
	if !ran && len(m.pending) > 0 {
		m.fail("Step ran nothing with %d pending", len(m.pending))
	}
}

// runUntil runs to a limit and checks that nothing due by it is left. When
// it stops before the next event, it schedules one between the limit and
// that event: the clock now lags the earliest pending time.
func (m *modelRun) runUntil() {
	t := m.eng.Now() + m.delay()
	m.eng.RunUntil(t)
	if m.eng.Now() != t {
		m.fail("RunUntil(%v) left the clock at %v", t, m.eng.Now())
	}
	i := m.min()
	if i >= 0 && m.pending[i].at <= t {
		m.fail("RunUntil(%v) left event %d at %v", t, m.pending[i].seq, m.pending[i].at)
	}
	if i >= 0 && m.rng.Intn(2) == 0 {
		m.schedule(t + Time(m.rng.Int63n(int64(m.pending[i].at-t))))
	}
}

// TestEngineMatchesModel runs random interleavings of At, After, Cancel,
// Step and RunUntil against the reference model.
func TestEngineMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		m := &modelRun{t: t, eng: New(seed), rng: rand.New(rand.NewSource(seed))}
		for op := 0; op < 3000; op++ {
			switch r := m.rng.Intn(10); {
			case r < 4:
				m.schedule(m.eng.Now() + m.delay())
			case r < 6:
				m.cancel()
			case r < 9:
				m.step()
			default:
				m.runUntil()
			}
			m.checkPending()
		}
		for len(m.pending) > 0 {
			m.step()
		}
		m.checkPending()
		if m.eng.Step() {
			m.fail("Step ran an event from an empty queue")
		}
	}
}

// TestSynchronizedTickersFireFIFO starts 1000 tickers of one period at one
// instant. Every round is a burst of 1000 events at a single time, reached
// after those events sat seconds ahead among unrelated ones; each burst must
// fire in the order the tickers were started.
func TestSynchronizedTickersFireFIFO(t *testing.T) {
	const n = 1000
	eng := New(1)
	var order []int
	for i := 0; i < n; i++ {
		runtime.NewTicker(eng, 2*Second, func() { order = append(order, i) }).Start()
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		eng.After(Time(rng.Int63n(int64(10*Second))), func() {})
	}
	eng.RunUntil(10 * Second)
	if len(order) != 5*n {
		t.Fatalf("%d ticks, want %d", len(order), 5*n)
	}
	for i, v := range order {
		if v != i%n {
			t.Fatalf("tick %d (round %d) came from ticker %d, want %d", i, i/n, v, i%n)
		}
	}
}

// TestCancelInsideBurst cancels events of a 1000-event burst from inside
// the burst: each fifth event cancels the next two and one far behind it.
// The survivors must fire in FIFO order, the cancelled ones never.
func TestCancelInsideBurst(t *testing.T) {
	const n = 1000
	const at = 7*Second + 3
	eng := New(1)
	eng.After(5*Second, func() {}) // the burst is reached through a redistribution
	hs := make([]Handle, n)
	cancelled := make([]bool, n)
	var order []int
	for i := 0; i < n; i++ {
		hs[i] = eng.At(at, func() {
			order = append(order, i)
			if i%5 != 0 {
				return
			}
			for _, j := range []int{i + 1, i + 2, i + 500} {
				if j < n && eng.Cancel(hs[j]) {
					cancelled[j] = true
				}
			}
		})
	}
	eng.Run()
	want := 0
	for i := 0; i < n; i++ {
		if cancelled[i] {
			continue
		}
		if want >= len(order) || order[want] != i {
			t.Fatalf("survivor %d out of order: fired %v", i, order)
		}
		want++
	}
	if want != len(order) {
		t.Fatalf("%d events fired, want %d survivors", len(order), want)
	}
	if eng.Now() != at || eng.Pending() != 0 {
		t.Fatalf("now=%v pending=%d after the burst", eng.Now(), eng.Pending())
	}
}
