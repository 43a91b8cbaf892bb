package simnet

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topology"
)

// MaxAwaitEvents bounds how many engine events a single Await may dispatch
// before it declares the condition stuck. The protocols' periodic tickers
// keep the event queue non-empty forever, so "run to quiescence" is not a
// usable stop condition.
const MaxAwaitEvents = 20_000_000

// Runtime is the discrete-event implementation of runtime.Runtime: the
// engine is the clock, the network is the transport, and the driver methods
// single-step the engine. It is the runtime every experiment and figure in
// the paper reproduction runs on; with a fixed seed its output is
// byte-identical across runs.
//
// Like the engine it wraps, a Runtime is not safe for concurrent use: all
// code runs inside event callbacks, dispatched one at a time. Do is
// therefore a plain call and the per-node serialization the protocol relies
// on holds trivially.
type Runtime struct {
	Eng *sim.Engine
	Net *Network

	serverAddr Addr
	nextAddr   Addr
}

// NewRuntime assembles the discrete-event runtime from an engine and a
// network. The bootstrap server owns address 0 and NewAddr hands out 1, 2, …
// — the same sequence the pre-runtime code used, which keeps seeded runs
// byte-identical.
func NewRuntime(eng *sim.Engine, net *Network) *Runtime {
	return &Runtime{Eng: eng, Net: net, serverAddr: 0, nextAddr: 1}
}

// Now implements runtime.Clock.
func (r *Runtime) Now() runtime.Time { return r.Eng.Now() }

// Schedule implements runtime.Clock.
func (r *Runtime) Schedule(d runtime.Time, fn func()) runtime.Handle {
	return r.Eng.Schedule(d, fn)
}

// Unschedule implements runtime.Clock.
func (r *Runtime) Unschedule(h runtime.Handle) bool { return r.Eng.Unschedule(h) }

// Scheduled implements runtime.Clock.
func (r *Runtime) Scheduled(h runtime.Handle) bool { return r.Eng.Scheduled(h) }

// Attach implements runtime.Transport.
func (r *Runtime) Attach(a Addr, ep runtime.Endpoint, h Handler) { r.Net.Attach(a, ep, h) }

// Detach implements runtime.Transport.
func (r *Runtime) Detach(a Addr) { r.Net.Detach(a) }

// Attached implements runtime.Transport.
func (r *Runtime) Attached(a Addr) bool { return r.Net.Attached(a) }

// Send implements runtime.Transport.
func (r *Runtime) Send(from, to Addr, size int, msg any) { r.Net.Send(from, to, size, msg) }

// SendLocal implements runtime.Transport.
func (r *Runtime) SendLocal(a Addr, msg any) { r.Net.SendLocal(a, msg) }

// Rand returns the engine's seeded random source.
func (r *Runtime) Rand() runtime.RNG { return r.Eng.Rand() }

// NewAddr allocates the next peer address.
func (r *Runtime) NewAddr() Addr {
	a := r.nextAddr
	r.nextAddr++
	return a
}

// ServerAddr returns the bootstrap server's address.
func (r *Runtime) ServerAddr() Addr { return r.serverAddr }

// Placement exposes the physical topology under the network.
func (r *Runtime) Placement() runtime.Placement { return placement{r.Net.Topo} }

// placement adapts topology.Graph to runtime.Placement.
type placement struct {
	topo *topology.Graph
}

func (p placement) StubHosts() []int { return p.topo.StubNodes() }

func (p placement) HostLatency(a, b int) (int64, error) { return p.topo.Latency(a, b) }

// Do implements runtime.Runtime. Everything is already serialized on the
// event loop, so it is a plain call.
func (r *Runtime) Do(fn func()) { fn() }

// Await single-steps the engine until cond holds. It fails if the event
// queue drains or the step budget is exhausted first.
func (r *Runtime) Await(cond func() bool) error {
	for steps := 0; !cond(); steps++ {
		if steps > MaxAwaitEvents {
			return fmt.Errorf("did not complete in %d events", MaxAwaitEvents)
		}
		if !r.Eng.Step() {
			return fmt.Errorf("stalled: event queue empty")
		}
	}
	return nil
}

// Sleep advances simulated time by d, dispatching everything due in between.
func (r *Runtime) Sleep(d runtime.Time) {
	r.Eng.RunUntil(r.Eng.Now() + d)
}
