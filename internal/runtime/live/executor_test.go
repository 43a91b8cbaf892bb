package live_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/live"
	rnet "repro/internal/runtime/net"
)

// The executor suite: every test below runs once on a live.Runtime and once
// on a single-process bootstrap net.Runtime, which embeds the same executor.
// What a carrier may change is how Send travels; timers, the run queue,
// Await and Close must behave identically.

// executor is what the suite drives.
type executor interface {
	runtime.Runtime
	Close()
	PendingTimers() int
}

// seqMsg is the one message type the suite sends (the net carrier needs a
// registered struct; live takes anything).
type seqMsg struct{ Seq int }

var carriers = []struct {
	name string
	new  func(t *testing.T, awaitTimeout time.Duration) executor
}{
	{"live", func(t *testing.T, awaitTimeout time.Duration) executor {
		return live.New(live.Config{AwaitTimeout: awaitTimeout})
	}},
	{"net", func(t *testing.T, awaitTimeout time.Duration) executor {
		rt, err := rnet.New(rnet.Config{
			Listen: "127.0.0.1:0", Messages: []any{seqMsg{}},
			AwaitTimeout: awaitTimeout, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}},
}

// onCarriers runs fn as a subtest per carrier on a fresh runtime.
func onCarriers(t *testing.T, awaitTimeout time.Duration, fn func(t *testing.T, rt executor)) {
	for _, c := range carriers {
		t.Run(c.name, func(t *testing.T) {
			rt := c.new(t, awaitTimeout)
			defer rt.Close()
			fn(t, rt)
		})
	}
}

// recorder is a handler that appends every delivery; it runs under the
// executor lock, so tests read it inside Do or an Await condition.
type recorder struct {
	got  []any
	from []runtime.Addr
}

func (c *recorder) Recv(from runtime.Addr, msg any) {
	c.got = append(c.got, msg)
	c.from = append(c.from, from)
}

// TestTimersAndAwait: a timer fires under the executor lock and Await
// observes its effect; Unschedule and Scheduled tell pending from fired from
// cancelled.
func TestTimersAndAwait(t *testing.T) {
	onCarriers(t, 10*time.Second, func(t *testing.T, rt executor) {
		// counter is written by the callback and by Do with no lock of its
		// own: the race detector reports a firing that skipped the executor.
		counter, fired := 0, false
		var h runtime.Handle
		rt.Do(func() {
			h = rt.Schedule(runtime.Millisecond, func() { counter++; fired = true })
			if !rt.Scheduled(h) {
				t.Error("fresh timer not scheduled")
			}
		})
		for i := 0; i < 100; i++ {
			rt.Do(func() { counter++ })
		}
		if err := rt.Await(func() bool { return fired }); err != nil {
			t.Fatal(err)
		}
		rt.Do(func() {
			if rt.Scheduled(h) || rt.Unschedule(h) {
				t.Error("a fired timer still reports pending")
			}
			if rt.Scheduled(runtime.Handle{}) || rt.Unschedule(runtime.Handle{}) {
				t.Error("the zero handle reports pending")
			}
		})

		// A cancelled timer never fires: wait on one armed to go off later.
		cancelled, later := false, false
		rt.Do(func() {
			h = rt.Schedule(20*runtime.Millisecond, func() { cancelled = true })
			rt.Schedule(40*runtime.Millisecond, func() { later = true })
			if !rt.Unschedule(h) {
				t.Error("unschedule of a pending timer failed")
			}
			if rt.Scheduled(h) || rt.Unschedule(h) {
				t.Error("a cancelled timer still reports pending")
			}
		})
		if err := rt.Await(func() bool { return later }); err != nil {
			t.Fatal(err)
		}
		rt.Do(func() {
			if cancelled {
				t.Error("cancelled timer fired")
			}
		})
		if n := rt.PendingTimers(); n != 0 {
			t.Errorf("%d firings still tracked after all fired or were cancelled", n)
		}
	})
}

// TestMailboxFIFOUnderConcurrentSenders asserts the per-pair FIFO guarantee:
// each sender's messages arrive at the shared receiver in send order, even
// with many senders interleaving under the executor lock.
func TestMailboxFIFOUnderConcurrentSenders(t *testing.T) {
	onCarriers(t, 20*time.Second, func(t *testing.T, rt executor) {
		const (
			senders = 8
			perSend = 200
			dst     = runtime.Addr(100)
		)
		rec := &recorder{}
		rt.Do(func() { rt.Attach(dst, runtime.Endpoint{}, rec) })

		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(from runtime.Addr) {
				defer wg.Done()
				for i := 0; i < perSend; i++ {
					rt.Do(func() { rt.Send(from, dst, 0, seqMsg{Seq: i}) })
				}
			}(runtime.Addr(s + 1))
		}
		wg.Wait()
		if err := rt.Await(func() bool { return len(rec.got) == senders*perSend }); err != nil {
			rt.Do(func() { t.Fatalf("only %d of %d messages delivered", len(rec.got), senders*perSend) })
		}

		rt.Do(func() {
			next := make(map[runtime.Addr]int)
			for i, m := range rec.got {
				from := rec.from[i]
				if seq := m.(seqMsg).Seq; seq != next[from] {
					t.Fatalf("sender %d: message %d arrived when %d was expected (position %d)", from, seq, next[from], i)
				}
				next[from]++
			}
		})
	})
}

// TestDetachDropsQueuedMessages: a message sitting in the run queue when its
// address detaches is dropped — it was in flight when the host crashed — and
// a re-attached incarnation must not see it. SendLocal queues directly on
// both carriers (live's zero-delay Send is the same Deliver call).
func TestDetachDropsQueuedMessages(t *testing.T) {
	onCarriers(t, 10*time.Second, func(t *testing.T, rt executor) {
		first, second := &recorder{}, &recorder{}
		const dst runtime.Addr = 9
		rt.Do(func() {
			rt.Attach(dst, runtime.Endpoint{}, first)
			// The dispatcher cannot deliver while we hold the executor lock,
			// so the detach below is guaranteed to beat delivery.
			rt.SendLocal(dst, seqMsg{Seq: 1})
			rt.Detach(dst)
			rt.Attach(dst, runtime.Endpoint{}, second)
			rt.SendLocal(dst, seqMsg{Seq: 2})
		})
		// The run queue is FIFO, so once the second message is in, the
		// first would have been too.
		if err := rt.Await(func() bool { return len(second.got) > 0 }); err != nil {
			t.Fatal(err)
		}
		rt.Do(func() {
			if len(first.got) != 0 {
				t.Errorf("first incarnation got %v after detach", first.got)
			}
			if len(second.got) != 1 || second.got[0] != (seqMsg{Seq: 2}) {
				t.Errorf("second incarnation got %v, want only its own message", second.got)
			}
			if rt.Detach(dst); rt.Attached(dst) {
				t.Error("address still attached after Detach")
			}
		})
	})
}

// TestAwaitTimeoutAndWaiters: Await gives up after AwaitTimeout, not before,
// and one executor section releases every concurrent waiter.
func TestAwaitTimeoutAndWaiters(t *testing.T) {
	const timeout = 50 * time.Millisecond
	onCarriers(t, timeout, func(t *testing.T, rt executor) {
		start := time.Now()
		err := rt.Await(func() bool { return false })
		if err == nil {
			t.Fatal("Await returned nil for a condition that never held")
		}
		if d := time.Since(start); d < timeout {
			t.Errorf("Await gave up after %v, before its %v timeout", d, timeout)
		}
	})

	onCarriers(t, 10*time.Second, func(t *testing.T, rt executor) {
		const waiters = 8
		flag := false
		var waiting, woke sync.WaitGroup
		for i := 0; i < waiters; i++ {
			waiting.Add(1)
			woke.Add(1)
			go func() {
				defer woke.Done()
				first := true
				err := rt.Await(func() bool {
					if first {
						first = false
						waiting.Done()
					}
					return flag
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		// Every waiter has seen flag false at least once.
		waiting.Wait()
		rt.Do(func() { flag = true })
		woke.Wait()
	})
}

// TestAwaitOnClosedRuntimeFailsAtOnce: once Close has run nothing can make a
// condition true, so Await reports an error at once instead of waiting out
// AwaitTimeout.
func TestAwaitOnClosedRuntimeFailsAtOnce(t *testing.T) {
	onCarriers(t, 10*time.Second, func(t *testing.T, rt executor) {
		rt.Close()
		start := time.Now()
		if err := rt.Await(func() bool { return false }); err == nil {
			t.Fatal("Await on a closed runtime returned nil for a condition that never held")
		}
		if d := time.Since(start); d >= 50*time.Millisecond {
			t.Errorf("Await on a closed runtime took %v to fail", d)
		}
	})
}

// TestCloseStopsPendingTimers: Close leaves no armed firing behind. Their
// closures would otherwise keep the closed runtime, its Systems and (on net)
// its connection buffers reachable until the longest one went off.
func TestCloseStopsPendingTimers(t *testing.T) {
	onCarriers(t, 10*time.Second, func(t *testing.T, rt executor) {
		var h runtime.Handle
		rt.Do(func() { h = rt.Schedule(runtime.Time(time.Hour/time.Microsecond), func() {}) })
		if n := rt.PendingTimers(); n != 1 {
			t.Fatalf("%d firings tracked with one timer armed", n)
		}
		rt.Close()
		if n := rt.PendingTimers(); n != 0 {
			t.Fatalf("%d firings still tracked after Close", n)
		}
		rt.Do(func() {
			if rt.Scheduled(h) {
				t.Error("timer still pending after Close")
			}
			if !rt.Schedule(0, func() { t.Error("timer armed after Close fired") }).Zero() {
				t.Error("Schedule after Close returned a live handle")
			}
		})
	})
}

// TestCloseIdempotentUnderLoad: Close racing itself, senders and timers
// returns on every caller and leaves nothing running (the test binary would
// hang, or the race detector report, otherwise).
func TestCloseIdempotentUnderLoad(t *testing.T) {
	onCarriers(t, 10*time.Second, func(t *testing.T, rt executor) {
		rec := &recorder{}
		rt.Do(func() {
			rt.Attach(1, runtime.Endpoint{}, rec)
			var tick func()
			tick = func() { rt.Schedule(100*runtime.Microsecond, tick) }
			tick()
		})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt.Do(func() {
					rt.Send(2, 1, 0, seqMsg{Seq: i})
					rt.SendLocal(1, seqMsg{Seq: i})
				})
			}
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			var closers sync.WaitGroup
			for i := 0; i < 3; i++ {
				closers.Add(1)
				go func() { defer closers.Done(); rt.Close() }()
			}
			closers.Wait()
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close wedged")
		}
		var delivered int
		rt.Do(func() { delivered = len(rec.got) })
		rt.Sleep(2 * runtime.Millisecond)
		rt.Do(func() {
			if len(rec.got) != delivered {
				t.Errorf("%d messages delivered after Close returned", len(rec.got)-delivered)
			}
		})
	})
}
