package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/idspace"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	rnet "repro/internal/runtime/net"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The probes time one layer each in isolation, through its exported
// functions. They do not depend on the workload, so every traced pass runs
// them and a layer's number can be laid beside any workload's.

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

// probeCodec encodes and decodes real protocol messages (sampled from the
// traced workload's Sends) with the wire codec.
func probeCodec(samples []any, frac float64, out map[string]float64) error {
	if len(samples) == 0 {
		return fmt.Errorf("codec probe: the traced repetition sent no message")
	}
	codec, err := rnet.NewCodec(core.WireMessages()...)
	if err != nil {
		return err
	}
	rounds := sized(20000, frac)
	codes := make([]uint16, len(samples))
	payloads := make([][]byte, len(samples))
	bytes := 0
	start := time.Now()
	for i := 0; i < rounds; i++ {
		j := i % len(samples)
		code, p, err := codec.Encode(samples[j])
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		codes[j], payloads[j] = code, p
		bytes += len(p)
	}
	enc := time.Since(start)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		j := i % len(samples)
		if _, err := codec.Decode(codes[j], payloads[j]); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	dec := time.Since(start)
	out["net.codec_encode_ns"] = float64(enc) / float64(rounds)
	out["net.codec_decode_ns"] = float64(dec) / float64(rounds)
	out["net.codec_bytes_per_msg"] = float64(bytes) / float64(rounds)
	return nil
}

// pingMsg is the probe's only wire message.
type pingMsg struct{ Seq uint64 }

// pingPong bounces a message between an address on rtA and one on rtB n
// times and returns the mean one-way hop time.
func pingPong(rtA, rtB runtime.Runtime, n uint64) (time.Duration, error) {
	var a, b runtime.Addr
	done := make(chan struct{})
	rtA.Do(func() {
		a = rtA.NewAddr()
		rtA.Attach(a, runtime.Endpoint{}, runtime.HandlerFunc(func(from runtime.Addr, msg any) {
			if seq := msg.(pingMsg).Seq; seq < n {
				rtA.Send(a, from, 0, pingMsg{Seq: seq + 1})
			} else {
				close(done)
			}
		}))
	})
	rtB.Do(func() {
		b = rtB.NewAddr()
		rtB.Attach(b, runtime.Endpoint{}, runtime.HandlerFunc(func(from runtime.Addr, msg any) {
			rtB.Send(b, from, 0, msg)
		}))
	})
	start := time.Now()
	rtA.Do(func() { rtA.Send(a, b, 0, pingMsg{Seq: 1}) })
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		return 0, fmt.Errorf("ping-pong stalled")
	}
	return time.Since(start) / time.Duration(2*n), nil
}

// probeHops measures one message hop on an idle runtime/net pair (codec,
// envelope, loopback socket, mailbox) and on runtime/live (mailbox only);
// the difference is the cost of the wire.
func probeHops(frac float64, out map[string]float64) error {
	cfg := rnet.Config{Listen: "127.0.0.1:0", Messages: []any{pingMsg{}}, Logf: func(string, ...any) {}}
	boot, err := rnet.New(cfg)
	if err != nil {
		return err
	}
	defer boot.Close()
	cfg.Bootstrap = boot.Endpoint()
	worker, err := rnet.New(cfg)
	if err != nil {
		return err
	}
	defer worker.Close()
	n := uint64(sized(3000, frac))
	hop, err := pingPong(boot, worker, n)
	if err != nil {
		return fmt.Errorf("net hop probe: %w", err)
	}
	out["net.hop_us"] = float64(hop) / float64(time.Microsecond)

	lrt := live.New(live.Config{})
	defer lrt.Close()
	if hop, err = pingPong(lrt, lrt, n); err != nil {
		return fmt.Errorf("live hop probe: %w", err)
	}
	out["live.hop_us"] = float64(hop) / float64(time.Microsecond)
	return nil
}

// probeDepth is the event-queue depth the engine probe holds: what des_churn
// keeps pending at N=1000 (one hello ticker, watchdogs and a finger-refresh
// timer per peer; sim.pending_depth reads ~4200).
const probeDepth = 4096

// probeEngine times the event heap with the hold model: at a steady depth,
// dispatch the earliest event and schedule a new one a random time ahead.
func probeEngine(frac float64, out map[string]float64) {
	eng := sim.New(1)
	rng := rand.New(rand.NewSource(1))
	noop := func() { sink++ }
	const horizon = 10 * sim.Second
	for i := 0; i < probeDepth; i++ {
		eng.After(sim.Time(rng.Int63n(int64(horizon))), noop)
	}
	n := sized(2_000_000, frac)
	start := time.Now()
	for i := 0; i < n; i++ {
		eng.Step()
		eng.After(sim.Time(rng.Int63n(int64(horizon))), noop)
	}
	out["sim.event_ns"] = float64(time.Since(start)) / float64(n)
}

// probeTopology times generating the paper-scale transit-stub graph with its
// stub latency matrix, and a latency lookup on it.
func probeTopology(frac float64, out map[string]float64) error {
	start := time.Now()
	g, err := topology.GenerateTransitStub(topology.DefaultConfig(), 1)
	if err != nil {
		return err
	}
	g.PrecomputeStubMatrix(1)
	out["topology.build_ms"] = float64(time.Since(start)) / float64(time.Millisecond)

	stubs := g.StubNodes()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{stubs[rng.Intn(len(stubs))], stubs[rng.Intn(len(stubs))]}
	}
	n := sized(4_000_000, frac)
	start = time.Now()
	for i := 0; i < n; i++ {
		p := pairs[i%len(pairs)]
		l, err := g.Latency(p[0], p[1])
		if err != nil {
			return err
		}
		sink += uint64(l)
	}
	out["topology.latency_ns"] = float64(time.Since(start)) / float64(n)
	return nil
}

func probeHash(frac float64, out map[string]float64) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = preKey(1, i)
	}
	n := sized(4_000_000, frac)
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += uint64(idspace.HashKey(keys[i%len(keys)]))
	}
	out["idspace.hash_ns"] = float64(time.Since(start)) / float64(n)
}

// sized scales a probe's iteration count down for smoke runs.
func sized(n int, frac float64) int { return max(n/100, int(float64(n)*frac)) }

// runProbes runs every workload-independent probe; frac < 1 shortens them.
func runProbes(samples []any, frac float64, out map[string]float64) error {
	if err := probeCodec(samples, frac, out); err != nil {
		return err
	}
	if err := probeHops(frac, out); err != nil {
		return err
	}
	probeEngine(frac, out)
	if err := probeTopology(frac, out); err != nil {
		return err
	}
	probeHash(frac, out)
	return nil
}
