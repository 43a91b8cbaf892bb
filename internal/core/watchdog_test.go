package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/runtime"
	"repro/internal/sim"
)

// watchEvent is one line of a watchdog history: an expiry of peer's watch on
// nb at µs at, or (tick set) the peer's hello tick.
type watchEvent struct {
	at   runtime.Time
	peer runtime.Addr
	nb   runtime.Addr
	tick bool
}

func (e watchEvent) String() string {
	if e.tick {
		return fmt.Sprintf("%d: peer %d ticks", e.at, e.peer)
	}
	return fmt.Sprintf("%d: peer %d presumes %d crashed", e.at, e.peer, e.nb)
}

// watchOp is one scripted step on one peer. Every op at one µs runs in
// script order.
type watchOp struct {
	at   runtime.Time
	peer int
	kind string // watch, hello, ack, unwatch, start, crash
	nb   int    // index into the peer's neighbor pool
}

// watchScript is a random history for a handful of bare peers: each watches
// a pool of addresses nobody is attached at, so every liveness signal is a
// scripted HELLO or ack and every expiry comes from the watch state alone.
// Even peers are t-peers whose pool starts with pred and succ (an expiry on
// either reports the crash and re-watches); every peer's pool then holds two
// children (re-watched by the hello tick while listed, dropped on expiry),
// two private addresses and the addresses all peers share, which the bursts
// refresh on several peers in one µs.
type watchScript struct {
	he, ht runtime.Time
	peers  int
	pool   int
	shared int
	ops    []watchOp
	end    runtime.Time
}

func newWatchScript(seed int64) watchScript {
	rng := rand.New(rand.NewSource(seed))
	sc := watchScript{he: 2 * runtime.Second, ht: 5 * runtime.Second, peers: 6, pool: 6, shared: 3}
	if seed%2 == 1 {
		// A timeout of three periods puts the deadline a tick's child
		// re-watch sets on a later tick of the same peer.
		sc.ht = 6 * runtime.Second
	}
	const span = 60 * runtime.Second
	sc.end = span + 4*sc.ht
	nbs := sc.pool + sc.shared
	crashAt := make([]runtime.Time, sc.peers)
	starts := make([]runtime.Time, sc.peers)
	for i := range sc.peers {
		crashAt[i] = sc.end
		if rng.Intn(4) == 0 {
			crashAt[i] = span/2 + runtime.Time(rng.Int63n(int64(span/2)))
		}
		// The hello tick starts after a pre-join phase of up to three
		// timeouts, on a random phase; half the peers watch a neighbor in
		// the same µs as they start, as a join completes.
		starts[i] = runtime.Time(rng.Int63n(int64(3 * sc.ht)))
		if rng.Intn(2) == 0 {
			sc.ops = append(sc.ops, watchOp{at: starts[i], peer: i, kind: "watch", nb: rng.Intn(nbs)})
		}
		sc.ops = append(sc.ops, watchOp{at: starts[i], peer: i, kind: "start"})
		if crashAt[i] < sc.end {
			sc.ops = append(sc.ops, watchOp{at: crashAt[i], peer: i, kind: "crash"})
		}
		// Watch the whole pool early, so pre-join expiries happen.
		for nb := range nbs {
			sc.ops = append(sc.ops, watchOp{at: runtime.Time(rng.Int63n(int64(sc.ht))), peer: i, kind: "watch", nb: nb})
		}
	}
	for range 400 {
		at := runtime.Time(rng.Int63n(int64(span)))
		switch r := rng.Intn(20); {
		case r < 2:
			// A burst: one shared neighbor heard by several peers in one µs,
			// in random order, as peers on one host hear one HELLO. Half the
			// bursts are placed so the deadlines fall on a tick of one peer.
			nb := sc.pool + rng.Intn(sc.shared)
			if rng.Intn(2) == 0 {
				i := rng.Intn(sc.peers)
				k := runtime.Time(rng.Int63n(int64(span/sc.he))) + 1
				at = starts[i] + k*sc.he - sc.ht
				if at < 0 || at >= span {
					continue
				}
			}
			kind := "hello"
			if rng.Intn(3) == 0 {
				kind = "watch"
			}
			for _, i := range rng.Perm(sc.peers) {
				if at < crashAt[i] && rng.Intn(3) > 0 {
					sc.ops = append(sc.ops, watchOp{at: at, peer: i, kind: kind, nb: nb})
				}
			}
			continue
		default:
			i := rng.Intn(sc.peers)
			if at >= crashAt[i] {
				continue
			}
			op := watchOp{at: at, peer: i, nb: rng.Intn(nbs)}
			switch {
			case r < 10:
				op.kind = "hello"
			case r < 12:
				op.kind = "ack"
			case r < 16:
				op.kind = "watch"
			default:
				op.kind = "unwatch"
			}
			sc.ops = append(sc.ops, op)
		}
	}
	slices.SortStableFunc(sc.ops, func(a, b watchOp) int { return int(a.at - b.at) })
	return sc
}

// watchAddrs are the addresses of a script's peers and of each peer's
// neighbor pool.
type watchAddrs struct {
	peers []runtime.Addr
	pools [][]runtime.Addr
}

// runWatchdogDeadlines plays the script on bare peers of a DES system and
// returns the watchdog history the peers produced.
func runWatchdogDeadlines(t *testing.T, seed int64, sc watchScript) ([]watchEvent, watchAddrs) {
	t.Helper()
	sys := newTestSystem(t, seed, func(c *Config) {
		c.HelloEvery = sc.he
		c.HelloTimeout = sc.ht
	})
	eng := sys.Eng()
	hosts := sys.Topo().StubNodes()
	var hist []watchEvent
	sys.watchdogExpired = func(p *Peer, nb runtime.Addr) {
		hist = append(hist, watchEvent{at: eng.Now(), peer: p.Addr, nb: nb})
	}
	sys.afterTick = func(p *Peer) {
		hist = append(hist, watchEvent{at: eng.Now(), peer: p.Addr, tick: true})
	}
	peers := make([]*Peer, sc.peers)
	pools := make([][]runtime.Addr, sc.peers)
	shared := make([]runtime.Addr, sc.shared)
	for i := range shared {
		shared[i] = sys.rt.NewAddr()
	}
	for i := range peers {
		p := &Peer{Addr: sys.rt.NewAddr(), sys: sys, alive: true, Role: SPeer, tpeer: NilRef, cp: NilRef}
		sys.setPeer(p)
		sys.rt.Attach(p.Addr, runtime.Endpoint{Host: hosts[i%len(hosts)], Capacity: 1}, runtime.HandlerFunc(p.recv))
		for range sc.pool {
			pools[i] = append(pools[i], sys.rt.NewAddr())
		}
		pools[i] = append(pools[i], shared...)
		if i%2 == 0 {
			t := p.takeTRole()
			t.pred = Ref{ID: 1, Addr: pools[i][0]}
			t.succ = Ref{ID: 2, Addr: pools[i][1]}
		}
		p.addChild(Ref{ID: 3, Addr: pools[i][2]})
		p.addChild(Ref{ID: 4, Addr: pools[i][3]})
		peers[i] = p
	}
	for _, op := range sc.ops {
		p, nb := peers[op.peer], pools[op.peer][op.nb]
		eng.At(op.at, func() {
			switch op.kind {
			case "watch":
				p.watch(nb)
			case "hello":
				p.recv(nb, helloMsg{Root: NilRef})
			case "ack":
				p.recv(nb, ackMsg{})
			case "unwatch":
				p.unwatch(nb)
			case "start":
				p.startHello()
			case "crash":
				p.Crash()
			}
		})
	}
	eng.RunUntil(sc.end)
	addrs := watchAddrs{pools: pools}
	for _, p := range peers {
		addrs.peers = append(addrs.peers, p.Addr)
	}
	return hist, addrs
}

// timerModel is the failure detector with one runtime.Timer per watched
// neighbor, re-armed by every HELLO and ack: the mechanism the deadlines
// replaced, kept here as their oracle. Its peers mirror the bare peers'
// expiry rules: a child is dropped, a t-peer's pred is cleared and then
// re-watched like its succ, anything else is dropped.
type timerModel struct {
	eng  *sim.Engine
	ht   runtime.Time
	hist []watchEvent
}

type modelPeer struct {
	addr       runtime.Addr
	tpeer      bool
	pred, succ runtime.Addr
	children   []runtime.Addr
	timers     map[runtime.Addr]*runtime.Timer
	ticker     *runtime.Ticker
	alive      bool
}

func (m *timerModel) watch(mp *modelPeer, nb runtime.Addr) {
	tm := mp.timers[nb]
	if tm == nil {
		tm = runtime.NewTimer(m.eng, m.ht, func() { m.expire(mp, nb) })
		mp.timers[nb] = tm
	}
	tm.Start()
}

func (m *timerModel) refresh(mp *modelPeer, nb runtime.Addr) {
	if tm := mp.timers[nb]; tm != nil && tm.Active() {
		tm.Start()
	}
}

func (m *timerModel) expire(mp *modelPeer, nb runtime.Addr) {
	m.hist = append(m.hist, watchEvent{at: m.eng.Now(), peer: mp.addr, nb: nb})
	if i := slices.Index(mp.children, nb); i >= 0 {
		mp.children = slices.Delete(mp.children, i, i+1)
		return
	}
	if !mp.tpeer || (nb != mp.pred && nb != mp.succ) {
		return
	}
	if nb == mp.pred {
		mp.pred = runtime.None
	}
	m.watch(mp, nb)
}

func (m *timerModel) tick(mp *modelPeer) {
	for _, c := range mp.children {
		if tm := mp.timers[c]; tm == nil || !tm.Active() {
			m.watch(mp, c)
		}
	}
	m.hist = append(m.hist, watchEvent{at: m.eng.Now(), peer: mp.addr, tick: true})
}

// runTimerModel plays the script on the model, with the bare peers'
// addresses.
func runTimerModel(seed int64, sc watchScript, addrs watchAddrs) []watchEvent {
	m := &timerModel{eng: sim.New(seed), ht: sc.ht}
	peers := make([]*modelPeer, sc.peers)
	pools := addrs.pools
	for i := range peers {
		mp := &modelPeer{addr: addrs.peers[i], pred: runtime.None, succ: runtime.None, timers: map[runtime.Addr]*runtime.Timer{}, alive: true}
		if i%2 == 0 {
			mp.tpeer, mp.pred, mp.succ = true, pools[i][0], pools[i][1]
		}
		mp.children = []runtime.Addr{pools[i][2], pools[i][3]}
		mp.ticker = runtime.NewTicker(m.eng, sc.he, func() { m.tick(mp) })
		peers[i] = mp
	}
	for _, op := range sc.ops {
		mp, nb := peers[op.peer], pools[op.peer][op.nb]
		m.eng.At(op.at, func() {
			if !mp.alive {
				return
			}
			switch op.kind {
			case "watch":
				m.watch(mp, nb)
			case "hello", "ack":
				m.refresh(mp, nb)
			case "unwatch":
				if tm := mp.timers[nb]; tm != nil {
					tm.Stop()
				}
			case "start":
				mp.ticker.Start()
			case "crash":
				mp.alive = false
				mp.ticker.Stop()
				for _, tm := range mp.timers {
					tm.Stop()
				}
			}
		})
	}
	m.eng.RunUntil(sc.end)
	return m.hist
}

// TestWatchdogDeadlinesMatchTimerModel holds the watchdog deadlines to one
// timer per neighbor over random histories: every expiry at the same µs and
// in the same place among all expiries and hello ticks (deadlines that fall
// in one µs expire in the order they were set, and before any tick of that
// µs). The histories cover random tick phases, a pre-join phase without a
// tick, watches made in the µs the tick starts, re-watches from an expiry,
// crashes, and bursts that set deadlines on several peers in one µs, half of
// them on a tick of one peer.
func TestWatchdogDeadlinesMatchTimerModel(t *testing.T) {
	var expiries, preJoin, rewatched, shared, onTick int
	for seed := int64(1); seed <= 48; seed++ {
		sc := newWatchScript(seed)
		got, addrs := runWatchdogDeadlines(t, seed, sc)
		want := runTimerModel(seed, sc, addrs)
		if err := firstDiff(got, want); err != nil {
			t.Fatalf("seed %d (HelloTimeout %v): %v", seed, sc.ht, err)
		}
		started := map[runtime.Addr]bool{}
		ticks := map[watchEvent]bool{}
		for _, e := range want {
			if e.tick {
				ticks[watchEvent{at: e.at, peer: e.peer, tick: true}] = true
			}
		}
		for i, e := range want {
			if e.tick {
				started[e.peer] = true
				continue
			}
			expiries++
			if !started[e.peer] {
				preJoin++
			}
			if slices.ContainsFunc(want[:i], func(o watchEvent) bool {
				return !o.tick && o.peer == e.peer && o.nb == e.nb && o.at == e.at-sc.ht
			}) {
				rewatched++
			}
			if slices.ContainsFunc(want, func(o watchEvent) bool { return !o.tick && o.at == e.at && o.peer != e.peer }) {
				shared++
			}
			if ticks[watchEvent{at: e.at, peer: e.peer, tick: true}] {
				onTick++
			}
		}
	}
	t.Logf("%d expiries: %d before the peer's first tick, %d re-watched by their last expiry, %d sharing their µs with another peer's, %d on the peer's own tick",
		expiries, preJoin, rewatched, shared, onTick)
	if preJoin == 0 || rewatched == 0 || shared == 0 || onTick == 0 {
		t.Fatal("the histories no longer cover every case the test names")
	}
}

func firstDiff(got, want []watchEvent) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d is %v, the timer model has %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, the timer model has %d", len(got), len(want))
	}
	return nil
}

// TestQuietHelloPathCancelsNothing counts what a HELLO or ack costs the
// clock. In a settled system with no crash, none may cancel anything (each
// one used to re-arm its neighbor's timer, a cancel and a schedule), a hello
// period schedules one tick per peer and the little else the period's
// protocols arm, and what is pending is the peers' tickers plus the
// messages in flight: no timer per watched neighbor.
func TestQuietHelloPathCancelsNothing(t *testing.T) {
	sys := newTestSystem(t, 7, func(c *Config) { c.Ps = 0.7 })
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 200}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(4 * sys.Cfg.HelloTimeout)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	const periods = 5
	hellos := sys.Stats().HellosSent
	// Half-way through, every watched neighbor acks once, as a query's
	// answer would (an ack only refreshes the watchdog).
	watched := 0
	for _, p := range sys.Peers() {
		for i := range p.nbrs {
			if nb := p.nbrs[i].addr; p.nbrs[i].due != 0 {
				watched++
				sys.Eng().After(periods*sys.Cfg.HelloEvery/2+runtime.Time(watched), func() { p.recv(nb, ackMsg{}) })
			}
		}
	}
	clk := sys.CountClock()
	sys.Settle(periods * sys.Cfg.HelloEvery)
	hellos = sys.Stats().HellosSent - hellos
	if n := sys.Stats().WatchdogExpiries; n != 0 {
		t.Fatalf("%d watchdog expiries in a quiet system", n)
	}
	peers, tpeers := len(sys.Peers()), len(sys.TPeers())
	pending := sys.Eng().Pending()
	t.Logf("%d peers (%d t-peers) watching %d neighbors, %d periods: %d HELLOs and %d acks, %d schedules, %d cancels; %d events pending",
		peers, tpeers, watched, periods, hellos, watched, clk.schedules, clk.unschedules, pending)
	if hellos < uint64(periods*peers) {
		t.Fatalf("only %d HELLOs in %d periods of %d peers", hellos, periods, peers)
	}
	if clk.unschedules != 0 {
		t.Errorf("%d cancels over %d HELLOs and %d acks, want none", clk.unschedules, hellos, watched)
	}
	if clk.schedules > periods*(peers+tpeers) {
		t.Errorf("%d schedules in %d periods, want at most one tick per peer and one more per t-peer each period (%d)",
			clk.schedules, periods, periods*(peers+tpeers))
	}
	if limit := peers + tpeers + peers/2; pending > limit {
		t.Errorf("%d events pending, want at most the %d tickers plus %d in flight", pending, peers+tpeers, peers/2)
	}
}
