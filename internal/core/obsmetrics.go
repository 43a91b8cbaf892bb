package core

import "repro/internal/obs"

// sysMetrics caches the registry metrics the protocol hot paths record into.
// The pointers are resolved once at SetMetrics time, so the per-lookup cost
// is one nil check plus atomic adds — no map lookups, no locks, no
// allocation, and (critically) no feedback into protocol behavior: recording
// draws no randomness and reads no clock the protocol does not already read.
type sysMetrics struct {
	lookupLatUs *obs.Histogram // end-to-end lookup latency, microseconds
	lookupHops  *obs.Histogram // overlay hops of successful lookups
	lookupOK    *obs.Counter
	lookupFail  *obs.Counter
	storeLatUs  *obs.Histogram // end-to-end store latency, microseconds
	deleteLatUs *obs.Histogram // end-to-end delete latency, microseconds
	probesSent  *obs.Counter   // α-parallel ring probes fanned out
}

// SetMetrics attaches a metrics registry to the system: lookup and store
// completions (the EvLookupHit/EvLookupFail sites) are recorded into
// histograms and counters registered under "lookup.*" and "store.*". A nil
// registry (the default) disables recording; every emission is guarded by a
// single pointer check, mirroring SetTracer.
func (s *System) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.met = nil
		return
	}
	s.met = &sysMetrics{
		lookupLatUs: reg.Histogram("lookup.latency_us"),
		lookupHops:  reg.Histogram("lookup.hops"),
		lookupOK:    reg.Counter("lookup.ok"),
		lookupFail:  reg.Counter("lookup.fail"),
		storeLatUs:  reg.Histogram("store.latency_us"),
		deleteLatUs: reg.Histogram("delete.latency_us"),
		probesSent:  reg.Counter("lookup.probes_sent"),
	}
}

// recordOp records a finished client operation. Called from finishOp with the
// final OpResult; r.Latency is already computed there.
func (m *sysMetrics) recordOp(kind string, r OpResult) {
	switch kind {
	case "lookup":
		if r.OK {
			m.lookupOK.Inc()
			m.lookupLatUs.Record(int64(r.Latency))
			m.lookupHops.Record(int64(r.Hops))
		} else {
			m.lookupFail.Inc()
		}
	case "store":
		if r.OK {
			m.storeLatUs.Record(int64(r.Latency))
		}
	case "delete":
		if r.OK {
			m.deleteLatUs.Record(int64(r.Latency))
		}
	}
}
