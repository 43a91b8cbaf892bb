package net

import (
	"bufio"
	"fmt"
	nnet "net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
)

// Test message types standing in for the protocol's wire set.
type ping struct {
	Seq  int
	Note string
}

type stats struct {
	ID    uint64
	Score float64
	Refs  []ref
	Live  bool
}

type ref struct {
	ID   uint64
	Addr int
}

func testMessages() []any {
	return []any{ping{}, stats{}}
}

// --- Codec ------------------------------------------------------------------

func TestCodecRoundTrip(t *testing.T) {
	c, err := NewCodec(testMessages()...)
	if err != nil {
		t.Fatal(err)
	}
	cases := []any{
		ping{Seq: 0, Note: ""},
		ping{Seq: -42, Note: "negative varints zigzag"},
		stats{ID: 1<<63 + 17, Score: -2.5, Refs: []ref{{ID: 1, Addr: -1}, {ID: 2, Addr: 900000}}, Live: true},
		stats{}, // zero value: nil slice must survive
	}
	for _, msg := range cases {
		code, payload, err := c.Encode(msg)
		if err != nil {
			t.Fatalf("encode %#v: %v", msg, err)
		}
		got, err := c.Decode(code, payload)
		if err != nil {
			t.Fatalf("decode %#v: %v", msg, err)
		}
		switch want := msg.(type) {
		case ping:
			if got != want {
				t.Fatalf("round trip %#v -> %#v", want, got)
			}
		case stats:
			g := got.(stats)
			if g.ID != want.ID || g.Score != want.Score || g.Live != want.Live || len(g.Refs) != len(want.Refs) {
				t.Fatalf("round trip %#v -> %#v", want, g)
			}
			for i := range g.Refs {
				if g.Refs[i] != want.Refs[i] {
					t.Fatalf("round trip refs %#v -> %#v", want.Refs, g.Refs)
				}
			}
		}
	}
}

func TestCodecRejectsBadTypes(t *testing.T) {
	type hasMap struct{ M map[string]int }
	if _, err := NewCodec(hasMap{}); err == nil {
		t.Fatal("map field accepted")
	}
	type hasUnexported struct{ x int } //nolint:unused
	if _, err := NewCodec(hasUnexported{}); err == nil {
		t.Fatal("unexported field accepted")
	}
	if _, err := NewCodec(ping{}, ping{}); err == nil {
		t.Fatal("duplicate prototype accepted")
	}
}

func TestCodecRejectsCorruptPayload(t *testing.T) {
	c, err := NewCodec(testMessages()...)
	if err != nil {
		t.Fatal(err)
	}
	code, payload, _ := c.Encode(ping{Seq: 7, Note: "x"})
	if _, err := c.Decode(code, payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := c.Decode(code, append(payload, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := c.Decode(99, payload); err == nil {
		t.Fatal("unknown code accepted")
	}
}

// --- Runtime ----------------------------------------------------------------

// rec is a Handler recording deliveries under its own lock.
type rec struct {
	mu   sync.Mutex
	got  []any
	from []runtime.Addr
}

func (c *rec) Recv(from runtime.Addr, msg any) {
	c.mu.Lock()
	c.got = append(c.got, msg)
	c.from = append(c.from, from)
	c.mu.Unlock()
}

func (c *rec) snapshot() ([]any, []runtime.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]any(nil), c.got...), append([]runtime.Addr(nil), c.from...)
}

func newBoot(t *testing.T) *Runtime {
	t.Helper()
	r, err := New(Config{Listen: "127.0.0.1:0", Messages: testMessages(), AwaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func newWorker(t *testing.T, boot *Runtime) *Runtime {
	t.Helper()
	r, err := New(Config{Listen: "127.0.0.1:0", Bootstrap: boot.Endpoint(), Messages: testMessages(), AwaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func awaitDelivery(t *testing.T, c *rec, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := c.snapshot()
		if len(got) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d messages arrived", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrossProcessExchange is the core tentpole scenario: two runtimes (one
// bootstrap, one worker), a peer on each, messages both ways over real
// sockets, with From addresses intact.
func TestCrossProcessExchange(t *testing.T) {
	boot := newBoot(t)
	worker := newWorker(t, boot)

	bootRec, workRec := &rec{}, &rec{}
	var bootAddr, workAddr runtime.Addr
	boot.Do(func() {
		bootAddr = boot.NewAddr()
		boot.Attach(bootAddr, runtime.Endpoint{}, bootRec)
	})
	worker.Do(func() {
		workAddr = worker.NewAddr()
		worker.Attach(workAddr, runtime.Endpoint{}, workRec)
	})

	worker.Do(func() { worker.Send(workAddr, bootAddr, 0, ping{Seq: 1, Note: "up"}) })
	awaitDelivery(t, bootRec, 1)
	boot.Do(func() { boot.Send(bootAddr, workAddr, 0, ping{Seq: 2, Note: "down"}) })
	awaitDelivery(t, workRec, 1)

	got, from := bootRec.snapshot()
	if got[0] != (ping{Seq: 1, Note: "up"}) || from[0] != workAddr {
		t.Fatalf("bootstrap got %v from %v", got[0], from[0])
	}
	got, from = workRec.snapshot()
	if got[0] != (ping{Seq: 2, Note: "down"}) || from[0] != bootAddr {
		t.Fatalf("worker got %v from %v", got[0], from[0])
	}
}

// TestDenseAllocationAcrossProcesses pins the Addr.Index density contract:
// interleaved NewAddr calls from several processes draw from one counter.
func TestDenseAllocationAcrossProcesses(t *testing.T) {
	boot := newBoot(t)
	w1 := newWorker(t, boot)
	w2 := newWorker(t, boot)

	seen := make(map[runtime.Addr]bool)
	alloc := func(r *Runtime) {
		r.Do(func() {
			a := r.NewAddr()
			if seen[a] {
				t.Errorf("address %d allocated twice", a)
			}
			seen[a] = true
		})
	}
	for i := 0; i < 4; i++ {
		alloc(boot)
		alloc(w1)
		alloc(w2)
	}
	if len(seen) != 12 {
		t.Fatalf("%d distinct addresses, want 12", len(seen))
	}
	for a := runtime.Addr(1); a <= 12; a++ {
		if !seen[a] {
			t.Fatalf("allocation not dense: %d missing from %v", a, seen)
		}
	}
}

// TestSelfDialLoopback: a message between two local addresses still crosses
// the socket (the uniform path), and arrives.
func TestSelfDialLoopback(t *testing.T) {
	boot := newBoot(t)
	r1, r2 := &rec{}, &rec{}
	boot.Do(func() {
		boot.Attach(1, runtime.Endpoint{}, r1)
		boot.Attach(2, runtime.Endpoint{}, r2)
		boot.Send(1, 2, 0, ping{Seq: 9})
	})
	awaitDelivery(t, r2, 1)
	got, from := r2.snapshot()
	if got[0] != (ping{Seq: 9}) || from[0] != 1 {
		t.Fatalf("got %v from %v", got[0], from[0])
	}
}

// attached reads Attached under r's execution guarantee.
func attached(r *Runtime, a runtime.Addr) bool {
	var ok bool
	r.Do(func() { ok = r.Attached(a) })
	return ok
}

// eventually polls cond for up to 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
	}
}

// TestAttachedAcrossProcesses: a worker's Attach and Detach reach the
// bootstrap's directory. Neither waits for it, so the test polls.
func TestAttachedAcrossProcesses(t *testing.T) {
	boot := newBoot(t)
	worker := newWorker(t, boot)

	var a runtime.Addr
	worker.Do(func() {
		a = worker.NewAddr()
		worker.Attach(a, runtime.Endpoint{}, &rec{})
	})
	eventually(t, "the bootstrap sees the worker's address as attached", func() bool { return attached(boot, a) })

	worker.Do(func() { worker.Detach(a) })
	eventually(t, "the detach reaches the bootstrap's directory", func() bool { return !attached(boot, a) })
}

// TestConnDropMarksDead: killing a worker process (modeled by Close) makes
// the bootstrap mark every address it registered as detached — TCP as the
// failure detector of last resort.
func TestConnDropMarksDead(t *testing.T) {
	boot := newBoot(t)
	worker := newWorker(t, boot)

	var a1, a2 runtime.Addr
	worker.Do(func() {
		a1, a2 = worker.NewAddr(), worker.NewAddr()
		worker.Attach(a1, runtime.Endpoint{}, &rec{})
		worker.Attach(a2, runtime.Endpoint{}, &rec{})
	})
	eventually(t, "the worker's addresses are visible before the crash", func() bool { return attached(boot, a1) && attached(boot, a2) })

	worker.Close()
	eventually(t, "the conn drop marks the worker's addresses dead", func() bool { return !attached(boot, a1) && !attached(boot, a2) })
}

// TestLateWorkerLearnsTheDirectory: a worker that joins after another
// worker's attaches finds them in its copy of the directory as soon as its
// first NewAddr returns, without any traffic to them, and later learns of
// their detach.
func TestLateWorkerLearnsTheDirectory(t *testing.T) {
	boot := newBoot(t)
	early := newWorker(t, boot)
	var a1, a2 runtime.Addr
	early.Do(func() {
		a1, a2 = early.NewAddr(), early.NewAddr()
		early.Attach(a1, runtime.Endpoint{}, &rec{})
		early.Attach(a2, runtime.Endpoint{}, &rec{})
	})
	eventually(t, "the bootstrap sees the early worker's addresses", func() bool { return attached(boot, a1) && attached(boot, a2) })

	late := newWorker(t, boot)
	late.Do(func() { late.NewAddr() })
	if !attached(late, a1) || !attached(late, a2) {
		t.Fatalf("after its first NewAddr the late worker sees %d: %v, %d: %v", a1, attached(late, a1), a2, attached(late, a2))
	}
	early.Do(func() { early.Detach(a1) })
	eventually(t, "the late worker learns of the detach", func() bool { return !attached(late, a1) && attached(late, a2) })
}

// TestSendToAnUnlearnedAddressIsRelayed: a worker whose copy of the
// directory lacks an address posts the frame to the bootstrap, which relays
// it to the process hosting the address.
func TestSendToAnUnlearnedAddressIsRelayed(t *testing.T) {
	boot := newBoot(t)
	w1, w2 := newWorker(t, boot), newWorker(t, boot)
	got := &rec{}
	var a, b runtime.Addr
	w1.Do(func() {
		a = w1.NewAddr()
		w1.Attach(a, runtime.Endpoint{}, &rec{})
	})
	w2.Do(func() {
		b = w2.NewAddr()
		w2.Attach(b, runtime.Endpoint{}, got)
	})
	eventually(t, "w1 learns of w2's address", func() bool { return attached(w1, b) })

	w1.dir.mu.Lock()
	delete(w1.dir.entries, int64(b))
	w1.dir.mu.Unlock()
	w1.Do(func() { w1.Send(a, b, 0, ping{Seq: 7}) })
	awaitDelivery(t, got, 1)
	if msgs, from := got.snapshot(); msgs[0] != (ping{Seq: 7}) || from[0] != a {
		t.Fatalf("relayed frame arrived as %v from %v", msgs[0], from[0])
	}
	w1.cmu.Lock()
	defer w1.cmu.Unlock()
	if w1.outboxes[w2.Endpoint()] != nil {
		t.Fatal("w1 dialed w2 directly instead of through the bootstrap")
	}
}

// TestBrokerNeverWaitedOn: once NewAddr has returned, nothing a worker does
// waits on the bootstrap. The stand-in below answers alloc requests on the
// connection they arrive on, and nothing else; Attach, Detach, Attached for
// a remote address and Send to an unknown address must each return at once.
func TestBrokerNeverWaitedOn(t *testing.T) {
	ln, err := nnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for next := int64(1); ; {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			for br := bufio.NewReader(nc); ; {
				env, err := readEnvelope(br)
				if err != nil {
					nc.Close()
					break
				}
				if env.Type == ctrlAllocReq {
					fp, _, _, _ := readAllocPayload(env.Payload)
					nc.Write(appendEnvelope(nil, envelope{Type: ctrlAllocResp, From: -1, To: -1, MsgID: env.MsgID, Payload: allocPayload(fp, next, "")}))
					next++
				}
			}
		}
	}()

	worker, err := New(Config{Listen: "127.0.0.1:0", Bootstrap: ln.Addr().String(), Messages: testMessages(), AwaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(worker.Close)
	var a runtime.Addr
	worker.Do(func() { a = worker.NewAddr() })
	for _, step := range []struct {
		name string
		fn   func()
	}{
		{"Attach", func() { worker.Attach(a, runtime.Endpoint{}, &rec{}) }},
		{"Attached of a remote address", func() { worker.Attached(a + 1) }},
		{"Send to an unknown address", func() { worker.Send(a, a+1, 0, ping{Seq: 1}) }},
		{"Detach", func() { worker.Detach(a) }},
	} {
		start := time.Now()
		worker.Do(step.fn)
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s took %v against a bootstrap that answers only alloc", step.name, d)
		}
	}
}

// TestMismatchedWireSchemaIsRefused: a worker built from a different message
// list is refused at its first NewAddr, which panics at once naming both
// fingerprints, and the bootstrap spends no address on it.
func TestMismatchedWireSchemaIsRefused(t *testing.T) {
	boot := newBoot(t)
	type extra struct{ N int }
	worker, err := New(Config{Listen: "127.0.0.1:0", Bootstrap: boot.Endpoint(), Messages: append(testMessages(), extra{}), AwaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(worker.Close)
	if worker.codec.fp == boot.codec.fp {
		t.Fatalf("an extra message type leaves the fingerprint at %016x", boot.codec.fp)
	}

	start := time.Now()
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		worker.NewAddr()
		return
	}()
	if d := time.Since(start); d > rpcTimeout/2 {
		t.Errorf("refusal took %v", d)
	}
	for _, fp := range []uint64{worker.codec.fp, boot.codec.fp} {
		if !strings.Contains(msg, fmt.Sprintf("%016x", fp)) {
			t.Fatalf("NewAddr panicked with %q, which does not name %016x", msg, fp)
		}
	}
	boot.Do(func() {
		if a := boot.NewAddr(); a != 1 {
			t.Fatalf("the bootstrap allocated %d after the refusal, want 1", a)
		}
	})
}

// TestDetachDropsInFlight: a frame to a detached address is dropped on
// arrival; a later re-attach receives new traffic at the same address.
func TestDetachReattachRouting(t *testing.T) {
	boot := newBoot(t)
	worker := newWorker(t, boot)

	first, second := &rec{}, &rec{}
	var a runtime.Addr
	worker.Do(func() {
		a = worker.NewAddr()
		worker.Attach(a, runtime.Endpoint{}, first)
	})
	boot.Do(func() { boot.Attach(0, runtime.Endpoint{}, &rec{}) })

	boot.Do(func() { boot.Send(0, a, 0, ping{Seq: 1}) })
	awaitDelivery(t, first, 1)

	worker.Do(func() {
		worker.Detach(a)
		worker.Attach(a, runtime.Endpoint{}, second)
	})
	boot.Do(func() { boot.Send(0, a, 0, ping{Seq: 2}) })
	awaitDelivery(t, second, 1)
	got, _ := second.snapshot()
	if got[0] != (ping{Seq: 2}) {
		t.Fatalf("re-attached handler got %v", got[0])
	}
	got, _ = first.snapshot()
	if len(got) != 1 {
		t.Fatalf("first incarnation got %v after detach", got)
	}
}

// TestUnknownAddrDropsSilently: sending to a never-registered address is a
// silent drop, not a panic or a hang.
func TestUnknownAddrDropsSilently(t *testing.T) {
	boot := newBoot(t)
	worker := newWorker(t, boot)
	worker.Do(func() { worker.Send(1, 999, 0, ping{Seq: 1}) })
	boot.Do(func() { boot.Send(1, 999, 0, ping{Seq: 1}) })
	// Nothing to assert beyond "we got here without blocking".
}

// TestConcurrentCrossTraffic hammers two runtimes with interleaved sends in
// both directions; the race detector plus per-sender FIFO are the assertions.
func TestConcurrentCrossTraffic(t *testing.T) {
	boot := newBoot(t)
	worker := newWorker(t, boot)

	const perSide = 100
	bootRec, workRec := &rec{}, &rec{}
	boot.Do(func() { boot.Attach(0, runtime.Endpoint{}, bootRec) })
	var wa runtime.Addr
	worker.Do(func() {
		wa = worker.NewAddr()
		worker.Attach(wa, runtime.Endpoint{}, workRec)
	})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			boot.Do(func() { boot.Send(0, wa, 0, ping{Seq: i}) })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			worker.Do(func() { worker.Send(wa, 0, 0, ping{Seq: i}) })
		}
	}()
	wg.Wait()

	awaitDelivery(t, bootRec, perSide)
	awaitDelivery(t, workRec, perSide)

	check := func(c *rec) {
		got, _ := c.snapshot()
		for i, m := range got {
			if m.(ping).Seq != i {
				t.Fatalf("FIFO violated: position %d holds seq %d", i, m.(ping).Seq)
			}
		}
	}
	check(bootRec)
	check(workRec)
}

// TestSendReconnectsToLateListener: a Send to an endpoint whose listener is
// not up yet must not be dropped on the first refused dial — the reconnect
// loop queues the frames, retries with backoff, and delivers once the
// listener appears.
func TestSendReconnectsToLateListener(t *testing.T) {
	boot := newBoot(t)

	// Reserve an endpoint, then free it: dials to it are refused until the
	// late runtime binds the same port.
	ln, err := nnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := ln.Addr().String()
	ln.Close()

	// Tell the sender where address 42 lives before anything listens there.
	const lateAddr runtime.Addr = 42
	boot.dir.set(int64(lateAddr), ep, true)
	boot.Do(func() { boot.Attach(1, runtime.Endpoint{}, &rec{}) })

	for i := 1; i <= 3; i++ {
		seq := i
		boot.Do(func() { boot.Send(1, lateAddr, 0, ping{Seq: seq}) })
	}

	// Let several dial attempts fail while the port is still closed.
	time.Sleep(300 * time.Millisecond)

	late, err := New(Config{
		Listen: ep, Bootstrap: boot.Endpoint(),
		Messages: testMessages(), AwaitTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(late.Close)
	lateRec := &rec{}
	late.Do(func() { late.Attach(lateAddr, runtime.Endpoint{}, lateRec) })

	awaitDelivery(t, lateRec, 3)
	got, from := lateRec.snapshot()
	for i, m := range got {
		if m.(ping).Seq != i+1 || from[i] != 1 {
			t.Fatalf("position %d holds %v from %v", i, m, from[i])
		}
	}
}

// TestOutboxDropsNewestAtBound: frames posted to an endpoint that refuses
// connections wait in its outbox up to outboxMax; the ones past it are
// dropped and counted, and the ones before it arrive in order once a
// listener comes up.
func TestOutboxDropsNewestAtBound(t *testing.T) {
	boot := newBoot(t)
	ln, err := nnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := ln.Addr().String()
	ln.Close()

	const (
		lateAddr runtime.Addr = 42
		extra                 = 5
	)
	boot.dir.set(int64(lateAddr), ep, true)
	// One Do posts everything: the writer takes its queue only once a dial
	// has landed, so nothing leaves the outbox meanwhile.
	boot.Do(func() {
		for i := 0; i < outboxMax+extra; i++ {
			boot.Send(1, lateAddr, 0, ping{Seq: i})
		}
	})
	boot.cmu.Lock()
	dropped := boot.outboxes[ep].dropped
	boot.cmu.Unlock()
	if dropped != extra {
		t.Errorf("%d frames counted as dropped, want %d", dropped, extra)
	}

	if ln, err = nnet.Listen("tcp", ep); err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.(*nnet.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	for i := 0; i < outboxMax; i++ {
		env, err := readEnvelope(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m, err := boot.codec.Decode(env.Type, env.Payload); err != nil || m != (ping{Seq: i}) {
			t.Fatalf("frame %d holds %v (%v)", i, m, err)
		}
	}
}

// TestSendNeverWaitsOnAWedgedEndpoint: a peer whose process stops reading
// must not stall its neighbours. The endpoint below accepts and never
// reads, so its socket buffers fill within a few frames; every Send to it
// must still return at once, and a timer armed before them must still fire.
func TestSendNeverWaitsOnAWedgedEndpoint(t *testing.T) {
	boot := newBoot(t)
	ln, err := nnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []nnet.Conn
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, nc)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range held {
			nc.Close()
		}
	})

	const wedged runtime.Addr = 42
	boot.dir.set(int64(wedged), ln.Addr().String(), true)
	fired := false
	boot.Do(func() { boot.Schedule(runtime.Millisecond, func() { fired = true }) })
	big := ping{Note: strings.Repeat("x", 1<<20)}
	for i := 0; i < 64; i++ {
		start := time.Now()
		boot.Do(func() { boot.Send(1, wedged, 0, big) })
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Send %d of a 1 MiB frame to a wedged endpoint took %v", i, d)
		}
	}
	if err := boot.Await(func() bool { return fired }); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerStartedBeforeItsBootstrapJoins: a worker whose bootstrap is not
// listening yet keeps its address request in the bootstrap's outbox while
// the writer redials, so NewAddr returns once the bootstrap binds instead of
// failing on the first refused dial.
func TestWorkerStartedBeforeItsBootstrapJoins(t *testing.T) {
	ln, err := nnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := ln.Addr().String()
	ln.Close()

	worker, err := New(Config{Listen: "127.0.0.1:0", Bootstrap: ep, Messages: testMessages(), AwaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(worker.Close)
	got := make(chan runtime.Addr, 1)
	go worker.Do(func() { got <- worker.NewAddr() })

	time.Sleep(300 * time.Millisecond)
	boot, err := New(Config{Listen: ep, Messages: testMessages(), AwaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(boot.Close)
	select {
	case a := <-got:
		if a != 1 {
			t.Fatalf("first address allocated is %d, want 1", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("NewAddr did not return after the bootstrap came up")
	}
}

// TestCloseUnblocksEverything: Close while a worker has in-flight directory
// traffic terminates promptly and leaves no goroutines wedged (the test
// binary would hang otherwise).
func TestCloseUnblocksEverything(t *testing.T) {
	boot := newBoot(t)
	worker := newWorker(t, boot)
	worker.Do(func() {
		a := worker.NewAddr()
		worker.Attach(a, runtime.Endpoint{}, &rec{})
	})
	done := make(chan struct{})
	go func() {
		worker.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker Close wedged")
	}
}
