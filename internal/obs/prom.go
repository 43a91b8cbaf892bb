package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4): one TYPE comment plus sample lines per metric, sorted by
// metric name so the output is deterministic and golden-testable.
//
//   - counters and gauges render as single samples;
//   - a Histogram "x" renders as a native Prometheus histogram: cumulative
//     x_bucket{le="..."} samples over the non-empty buckets, the mandatory
//     le="+Inf" bucket, x_sum and x_count.
//
// Metric names are sanitized to the Prometheus grammar: every character
// outside [a-zA-Z0-9_:] (our registry convention uses dots) becomes '_'.

// PromContentType is the Content-Type for the exposition this package writes.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a registry name into a legal Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a sample value: shortest round-trip representation, with
// the spellings Prometheus expects for the special values.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePromText writes every metric in the registry to w in Prometheus text
// exposition format. Metrics are emitted in sorted name order; the writer
// takes a point-in-time snapshot of each metric, so a scrape during a run
// sees consistent recent values.
func (r *Registry) WritePromText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.kinds))
	for n := range r.kinds {
		names = append(names, n)
	}
	kinds := make(map[string]string, len(r.kinds))
	for n, k := range r.kinds {
		kinds[n] = k
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		pn := promName(name)
		switch kinds[name] {
		case "counter":
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %s\n", pn, pn, promFloat(float64(counters[name].Value())))
		case "gauge":
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(gauges[name].Value()))
		case "histogram":
			s := hists[name].Snapshot()
			fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
			var cum uint64
			for _, bk := range s.Buckets {
				cum += bk.Count
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", pn, bk.High, cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, s.Count)
			fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", pn, s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
