package main

import (
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"time"

	"repro/internal/core"
)

// perLayerUnits names every per-layer metric and its unit. A metric whose
// layer is not on a workload's path is reported as 0 there: the prediction
// "no movement" is then checkable in the same document.
var perLayerUnits = map[string]string{
	"introspect.get_mean_ms":       "ms",
	"introspect.get_p50_ms":        "ms",
	"introspect.get_p90_ms":        "ms",
	"introspect.get_p99_ms":        "ms",
	"introspect.put_mean_ms":       "ms",
	"introspect.put_p99_ms":        "ms",
	"introspect.http_overhead_us":  "us",
	"runtime.do_wait_us":           "us",
	"runtime.do_run_us":            "us",
	"runtime.await_us":             "us",
	"runtime.await_overshoot_us":   "us",
	"runtime.send_ns":              "ns",
	"runtime.schedule_ns":          "ns",
	"runtime.unschedule_ns":        "ns",
	"runtime.cancel_ratio":         "ratio",
	"runtime.pending_timers":       "count",
	"runtime.msgs_per_op":          "count",
	"runtime.events_per_op":        "count",
	"runtime.maint_msgs_per_s":     "1/s",
	"runtime.send_share":           "ratio",
	"runtime.schedule_share":       "ratio",
	"runtime.other_share":          "ratio",
	"core.handler_ns":              "ns",
	"core.timer_cb_ns":             "ns",
	"core.handler_share":           "ratio",
	"core.timer_share":             "ratio",
	"core.hops_per_lookup":         "count",
	"core.msgs_per_lookup":         "count",
	"core.events_per_lookup":       "count",
	"core.alloc_b_per_lookup":      "B",
	"core.replicas_pushed_per_put": "ratio",
	"core.hellos_per_s":            "1/s",
	"net.codec_encode_ns":          "ns",
	"net.codec_decode_ns":          "ns",
	"net.codec_bytes_per_msg":      "B",
	"net.bytes_per_op":             "B",
	"net.hop_us":                   "us",
	"live.hop_us":                  "us",
	"simnet.msgs_per_event":        "ratio",
	"sim.events_per_s":             "1/s",
	"sim.pending_depth":            "count",
	"sim.event_ns":                 "ns",
	"topology.latency_ns":          "ns",
	"topology.build_ms":            "ms",
	"exp.point_s":                  "s",
	"exp.events_per_point":         "count",
	"idspace.hash_ns":              "ns",
	"process.cpu_ms_per_op":        "ms",
	"trace.overhead_ratio":         "ratio",
}

// traced is what a traced repetition leaves behind for the pass to finish.
type traced struct {
	tot     layerTotals
	samples []any
}

// collect folds the runtimes' totals into the repetition's per-layer
// metrics. ops and the wall time are those of the traced measured window.
func collect(rts []*tracingRuntime, rec *traceRec, res *repResult) {
	var tot layerTotals
	var pending int64
	var samples []any
	for _, t := range rts {
		tt, p, s := t.snapshot()
		tot.merge(&tt)
		pending += p
		samples = append(samples, s...)
	}
	rec.mu.Lock()
	doWait, doTotal, await := rec.doWait, rec.doTotal, rec.await
	rec.mu.Unlock()

	ops, wallNs := res.ops(), res.runS*1e9
	L := res.layer
	L["runtime.do_wait_us"] = float64(doWait.ns) / ops / 1e3
	L["runtime.do_run_us"] = float64(doTotal.ns-doWait.ns) / ops / 1e3
	L["runtime.await_us"] = float64(await.ns) / ops / 1e3
	L["runtime.send_ns"] = tot.send.per()
	L["runtime.schedule_ns"] = tot.schedule.per()
	L["runtime.unschedule_ns"] = tot.unschedule.per()
	if tot.schedule.n > 0 {
		L["runtime.cancel_ratio"] = float64(tot.cancelled) / float64(tot.schedule.n)
	}
	L["runtime.pending_timers"] = float64(pending)
	L["runtime.msgs_per_op"] = float64(tot.send.n) / ops
	L["runtime.events_per_op"] = float64(tot.events()) / ops
	L["core.handler_ns"] = tot.handler.per()
	L["core.timer_cb_ns"] = tot.timer.per()
	L["core.handler_share"] = float64(tot.handler.ns) / wallNs
	L["core.timer_share"] = float64(tot.timer.ns) / wallNs
	L["runtime.send_share"] = float64(tot.send.ns+tot.sendLocal.ns) / wallNs
	L["runtime.schedule_share"] = float64(tot.schedule.ns+tot.unschedule.ns) / wallNs
	// What is left of the traced wall time: the event heap and dispatch loop
	// on DES; idle time, Await polling and HTTP on kv.
	L["runtime.other_share"] = 1 - float64(tot.busyNs())/wallNs
	if len(res.getMs)+len(res.putMs) > 0 {
		// Client latency that is not inside a Do or an Await on the server:
		// the HTTP client, the loopback connection and net/http's server.
		clientUs := 1e3 * mean(append(append([]float64(nil), res.getMs...), res.putMs...))
		L["introspect.http_overhead_us"] = clientUs - float64(doTotal.ns+await.ns)/ops/1e3
	}
	res.traced = &traced{tot: tot, samples: samples}
}

// counts reads the running send and event counts of the traced runtimes.
func counts(rts []*tracingRuntime) (sends, events int64) {
	for _, t := range rts {
		t.Runtime.Do(func() {
			sends += t.send.n
			events += t.events()
		})
	}
	return sends, events
}

// liveProbes runs the two probes that need the workload's own system, after
// its measured window: an idle window (maintenance traffic per second of
// runtime clock) and a phase of lookups issued one at a time straight on the
// System, where the moment the result callback fires can be told apart from
// the moment Await returns.
func liveProbes(rts []*tracingRuntime, rec *traceRec, sys *core.System, keys []string, seed int64, idle func() float64, res *repResult) error {
	L := res.layer
	rec.record(true)
	defer rec.record(false)

	s0, _ := counts(rts)
	idleS := idle()
	s1, _ := counts(rts)
	L["runtime.maint_msgs_per_s"] = float64(s1-s0) / idleS

	rt := sys.Runtime()
	var origins []*core.Peer
	rt.Do(func() { origins = sys.Peers() })
	rng := rand.New(rand.NewSource(seed + 3))
	const n = 400
	var overshoot time.Duration
	hops := 0
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	s0, e0 := counts(rts)
	for i := 0; i < n; i++ {
		var (
			finished bool
			doneAt   time.Time
			r        core.OpResult
		)
		key := keys[rng.Intn(len(keys))]
		rt.Do(func() {
			origins[i%len(origins)].Lookup(key, func(got core.OpResult) {
				doneAt, r, finished = time.Now(), got, true
			})
		})
		if err := rt.Await(func() bool { return finished }); err != nil {
			return fmt.Errorf("direct lookup: %w", err)
		}
		overshoot += time.Since(doneAt)
		if !r.OK {
			return fmt.Errorf("direct lookup of %s failed", key)
		}
		hops += r.Hops
	}
	s1, e1 := counts(rts)
	goruntime.ReadMemStats(&m1)
	L["runtime.await_overshoot_us"] = float64(overshoot) / n / 1e3
	L["core.hops_per_lookup"] = float64(hops) / n
	L["core.msgs_per_lookup"] = float64(s1-s0) / n
	L["core.events_per_lookup"] = float64(e1-e0) / n
	L["core.alloc_b_per_lookup"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	return nil
}

// tracedPass runs one untraced and one traced repetition of the workload and
// the probes, and reports every per-layer metric. End-to-end metrics never
// come from here.
func tracedPass(w workload, seed int64, sc scale, dir string) (*result, error) {
	base, err := w.rep(seed, sc, nil)
	if err != nil {
		return nil, fmt.Errorf("%s untraced rep: %w", w.name, err)
	}
	rec := &traceRec{keepSpans: !w.des}
	tr, err := w.rep(seed, sc, rec)
	if err != nil {
		return nil, fmt.Errorf("%s traced rep: %w", w.name, err)
	}
	if tr.traced == nil {
		return nil, fmt.Errorf("%s: traced repetition recorded no layer data", w.name)
	}
	if w.des && tr.sig != "" && tr.sig != base.sig {
		return nil, fmt.Errorf("%s: tracing changed the run:\n  %s\n  %s", w.name, base.sig, tr.sig)
	}
	attempted, failed, err := check(w.name, false, []*repResult{base, tr})
	if err != nil {
		return nil, err
	}

	L := make(map[string]float64, len(perLayerUnits))
	for k, v := range base.layer {
		L[k] = v
	}
	for k, v := range tr.layer {
		L[k] = v
	}
	if len(base.getMs) > 0 {
		L["introspect.get_mean_ms"] = mean(base.getMs)
		L["introspect.get_p50_ms"] = percentile(base.getMs, 0.50)
		L["introspect.get_p90_ms"] = percentile(base.getMs, 0.90)
		L["introspect.get_p99_ms"] = percentile(base.getMs, 0.99)
	}
	if len(base.putMs) > 0 {
		L["introspect.put_mean_ms"] = mean(base.putMs)
		L["introspect.put_p99_ms"] = percentile(base.putMs, 0.99)
	}
	L["process.cpu_ms_per_op"] = 1000 * base.cpuS / base.ops()
	if base.events > 0 {
		L["sim.events_per_s"] = float64(base.events) / base.runS
	}
	if _, ok := L["trace.overhead_ratio"]; !ok {
		L["trace.overhead_ratio"] = (tr.runS / tr.ops()) / (base.runS / base.ops())
	}
	if err := runProbes(tr.traced.samples, min(1, sc.perRep()/4), L); err != nil {
		return nil, err
	}
	L["net.bytes_per_op"] = L["runtime.msgs_per_op"] * L["net.codec_bytes_per_msg"]

	rec.mu.Lock()
	spans := linkSpans(tr.spans, rec.spans)
	rec.mu.Unlock()
	var origin time.Time
	if len(spans) > 0 {
		origin = spans[0].start // linkSpans puts the earliest request first
	}
	path, err := writeTrace(dir, w.name, origin, spans, &tr.traced.tot)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: trace written to %s (%d spans)\n", w.name, path, len(spans))

	metrics := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		metrics[name] = metric{Value: L[name], Unit: unit}
	}
	for name := range L {
		if _, ok := perLayerUnits[name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %q has no unit", w.name, name)
		}
	}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
