package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing named count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a named value that can go up and down. The value is stored as an
// atomic uint64 bit pattern (math.Float64bits), so Set and Value are single
// atomic operations — no mutex, no allocation — and a gauge can sit on the
// same hot paths as a Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a get-or-create namespace of counters, gauges and histograms. It is safe for concurrent use; Snapshot flattens everything
// into a map[string]float64 suitable for a manifest point record, and
// WritePromText (prom.go) renders the whole registry in Prometheus text
// exposition format.
//
// A name belongs to exactly one metric kind. Re-registering a name as a
// different kind panics: the old behavior silently let Snapshot overwrite one
// metric with the other, which turns a naming slip into quietly corrupted
// results.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]string),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// claim records that name is used as the given kind, panicking if the name is
// already registered as a different kind. Callers hold r.mu.
func (r *Registry) claim(name, kind string) {
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s, cannot re-register as a %s", name, prev, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens the registry into name -> value. Counters and gauges map
// directly; a histogram named "x" expands to "x.count", "x.p50", "x.p90",
// "x.p99", "x.p999", "x.max" (quantiles omitted while empty).
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+6*len(r.hists))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, h := range r.hists {
		s := h.Snapshot()
		out[n+".count"] = float64(s.Count)
		if s.Count > 0 {
			out[n+".p50"] = s.P50
			out[n+".p90"] = s.P90
			out[n+".p99"] = s.P99
			out[n+".p999"] = s.P999
			out[n+".max"] = s.Max
		}
	}
	return out
}
