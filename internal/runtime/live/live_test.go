package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
)

// recorder is a test handler that appends every delivery under its own lock.
type recorder struct {
	mu   sync.Mutex
	got  []any
	from []runtime.Addr
}

func (c *recorder) Recv(from runtime.Addr, msg any) {
	c.mu.Lock()
	c.got = append(c.got, msg)
	c.from = append(c.from, from)
	c.mu.Unlock()
}

func (c *recorder) snapshot() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]any(nil), c.got...)
}

// TestDelayedSendSurvivesReattach pins the delivery-time resolution of
// delayed sends: a message in flight to an address that detaches and
// re-attaches before the delay fires must reach the new incarnation. The old
// code captured the *node at send time, so the message died in the closed
// mailbox of the first incarnation even though the address was live again.
func TestDelayedSendSurvivesReattach(t *testing.T) {
	r := New(Config{Delay: 5 * time.Millisecond})
	defer r.Close()

	first, second := &recorder{}, &recorder{}
	const dst runtime.Addr = 7
	r.Do(func() {
		r.Attach(dst, runtime.Endpoint{}, first)
		r.Send(1, dst, 0, "in-flight")
		r.Detach(dst)
		r.Attach(dst, runtime.Endpoint{}, second)
	})

	deadline := time.Now().Add(2 * time.Second)
	for len(second.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("delayed send never reached the re-attached address; first got %v", first.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if got := second.snapshot(); len(got) != 1 || got[0] != "in-flight" {
		t.Fatalf("re-attached handler got %v, want [in-flight]", got)
	}
	if got := first.snapshot(); len(got) != 0 {
		t.Fatalf("detached incarnation got %v, want nothing", got)
	}
}

// TestDelayedSendToDetachedDropped: with no re-attach, the firing finds no
// node and the message is dropped silently, like a packet to a dead host.
func TestDelayedSendToDetachedDropped(t *testing.T) {
	r := New(Config{Delay: 2 * time.Millisecond})
	defer r.Close()

	rec := &recorder{}
	const dst runtime.Addr = 3
	r.Do(func() {
		r.Attach(dst, runtime.Endpoint{}, rec)
		r.Send(1, dst, 0, "doomed")
		r.Detach(dst)
	})
	time.Sleep(20 * time.Millisecond)
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("detached address received %v", got)
	}
	if pending := r.PendingTimers(); pending != 0 {
		t.Fatalf("%d delayed sends still tracked after firing", pending)
	}
}

// TestCloseCancelsDelayedSends pins Close's accounting of pending delayed
// sends: the timer set drains, nothing is delivered after Close, and a firing
// racing Close finds itself gone from the set instead of delivering.
func TestCloseCancelsDelayedSends(t *testing.T) {
	r := New(Config{Delay: 10 * time.Millisecond})
	rec := &recorder{}
	const dst runtime.Addr = 2
	r.Do(func() {
		r.Attach(dst, runtime.Endpoint{}, rec)
		for i := 0; i < 50; i++ {
			r.Send(1, dst, 0, i)
		}
	})
	if pending := r.PendingTimers(); pending != 50 {
		t.Fatalf("%d delayed sends tracked before Close, want 50", pending)
	}
	r.Close()
	if pending := r.PendingTimers(); pending != 0 {
		t.Fatalf("%d delayed sends tracked after Close, want 0", pending)
	}
	time.Sleep(30 * time.Millisecond) // past the delay: any stray firing would land here
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("messages delivered after Close: %v", got)
	}
}

// TestRunQueueDropsNewestAtBound: deliveries queued inside one Do, where the
// dispatcher cannot pop (it pops only under the executor lock), fill the run
// queue to runQueueMax; the ones past it are dropped and counted, and the
// ones before it are delivered in order.
func TestRunQueueDropsNewestAtBound(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	rec := &recorder{}
	const extra = 5
	r.Do(func() {
		r.Attach(1, runtime.Endpoint{}, rec)
		for i := 0; i < runQueueMax+extra; i++ {
			r.SendLocal(1, i)
		}
	})
	if err := r.Await(func() bool { return len(rec.got) == runQueueMax }); err != nil {
		t.Fatal(err)
	}
	r.qmu.Lock()
	dropped := r.dropped
	r.qmu.Unlock()
	if dropped != extra {
		t.Errorf("%d deliveries counted as dropped, want %d", dropped, extra)
	}
	for i, m := range rec.snapshot() {
		if m != i {
			t.Fatalf("position %d holds %v", i, m)
		}
	}
}

// TestDelayedSendCloseRace hammers delayed sends from one goroutine while
// another closes the runtime; the race detector is the assertion.
func TestDelayedSendCloseRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		r := New(Config{Delay: 100 * time.Microsecond})
		rec := &recorder{}
		r.Do(func() { r.Attach(1, runtime.Endpoint{}, rec) })
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Do(func() {
					if !r.closed {
						r.Send(2, 1, 0, i)
					}
				})
			}
		}()
		time.Sleep(time.Duration(iter%5) * 50 * time.Microsecond)
		r.Close()
		wg.Wait()
	}
}
