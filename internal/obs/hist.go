package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log-linear histogram for non-negative integer
// observations (hop counts, latencies in microseconds). The record path is a
// single atomic add into a fixed bucket array — no locks, no allocation — so
// it can sit on protocol hot paths without feeding back into behavior or
// showing up on the heap profile.
//
// Bucket scheme: values below 2^histSubBits get one exact bucket each; every
// larger power-of-two octave [2^e, 2^(e+1)) is split into 2^histSubBits
// linear sub-buckets. With histSubBits = 3 that is 8 sub-buckets per octave:
// values 0..15 are exact and everything above is resolved to within 12.5%,
// which is tighter than the run-to-run variance of anything we measure.
//
// Readers (Quantile, Snapshot, the Prometheus writer) take a moment-in-time
// view by loading each bucket once; concurrent records may land between
// loads, so a reader sees some consistent recent past, never a torn value —
// the standard contract for scrape-style metrics.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
}

const (
	// histSubBits is the log2 of the per-octave sub-bucket count.
	histSubBits = 3
	histSubs    = 1 << histSubBits
	// histBuckets covers the exact region [0, histSubs) plus octaves
	// e = histSubBits .. 63, each with histSubs sub-buckets.
	histBuckets = histSubs + (64-histSubBits)*histSubs
)

// histIndex maps a value to its bucket.
func histIndex(u uint64) int {
	if u < histSubs {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1
	sub := (u >> (e - histSubBits)) & (histSubs - 1)
	return int(e-histSubBits+1)<<histSubBits + int(sub)
}

// histLow returns the smallest value a bucket covers.
func histLow(b int) uint64 {
	if b < histSubs {
		return uint64(b)
	}
	e := uint(b>>histSubBits) + histSubBits - 1
	sub := uint64(b & (histSubs - 1))
	return (histSubs + sub) << (e - histSubBits)
}

// histWidth returns how many distinct values a bucket covers.
func histWidth(b int) uint64 {
	if b < 2*histSubs {
		return 1
	}
	e := uint(b>>histSubBits) + histSubBits - 1
	return 1 << (e - histSubBits)
}

// histMid returns the bucket's representative value: the exact value for
// width-1 buckets, the midpoint otherwise.
func histMid(b int) float64 {
	w := histWidth(b)
	return float64(histLow(b)) + float64(w-1)/2
}

// Record counts one observation. Negative values clamp to zero. This is the
// hot path: one atomic add, no locks, no allocation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))].Add(1)
}

// Count returns the total number of observations recorded.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile returns the q-th (0..1) quantile by nearest rank over the bucket
// representatives. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	qs := [1]float64{q}
	out := [1]float64{}
	h.quantiles(qs[:], out[:])
	return out[0]
}

// Quantiles fills out[i] with the qs[i]-th quantile, loading each bucket
// exactly once for the whole batch. qs must be ascending; out must be the
// same length as qs.
func (h *Histogram) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	h.quantiles(qs, out)
	return out
}

func (h *Histogram) quantiles(qs, out []float64) {
	var local [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		local[i] = c
		total += c
	}
	if total == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	// Nearest-rank over the flattened sample: rank q*(N-1) rounded half up
	// rather than truncated, so small samples are not biased low.
	qi := 0
	var cum uint64
	for b := 0; b < histBuckets && qi < len(qs); b++ {
		if local[b] == 0 {
			continue
		}
		cum += local[b]
		for qi < len(qs) {
			rank := uint64(qs[qi]*float64(total-1) + 0.5)
			if rank >= total {
				rank = total - 1
			}
			if rank >= cum {
				break
			}
			out[qi] = histMid(b)
			qi++
		}
	}
	for ; qi < len(qs); qi++ {
		out[qi] = out[qi-1]
	}
}

// HistBucket is one non-empty histogram bucket in a snapshot. Low is the
// smallest value the bucket covers; High is the largest (inclusive).
type HistBucket struct {
	Low, High uint64
	Count     uint64
}

// HistSnapshot is a moment-in-time view of a histogram.
type HistSnapshot struct {
	Count               uint64
	Sum                 float64 // approximated from bucket representatives
	Min, Max            float64 // bucket representatives of the extremes
	P50, P90, P99, P999 float64
	Buckets             []HistBucket // non-empty buckets, ascending
}

// Snapshot captures the histogram: totals, standard quantiles and the
// non-empty buckets (for exposition formats that need the full shape).
func (h *Histogram) Snapshot() HistSnapshot {
	var local [histBuckets]uint64
	var s HistSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		local[i] = c
		s.Count += c
	}
	if s.Count == 0 {
		return s
	}
	s.Buckets = make([]HistBucket, 0, 16)
	first := true
	for b := range local {
		if local[b] == 0 {
			continue
		}
		mid := histMid(b)
		s.Sum += mid * float64(local[b])
		if first {
			s.Min = mid
			first = false
		}
		s.Max = mid
		s.Buckets = append(s.Buckets, HistBucket{
			Low:   histLow(b),
			High:  histLow(b) + histWidth(b) - 1,
			Count: local[b],
		})
	}
	qs := [4]float64{0.50, 0.90, 0.99, 0.999}
	var out [4]float64
	// Quantiles over the already-loaded view would be ideal; re-loading is
	// close enough (scrape-consistency, as documented on the type) and keeps
	// one quantile walk shared by every caller.
	h.quantiles(qs[:], out[:])
	s.P50, s.P90, s.P99, s.P999 = out[0], out[1], out[2], out[3]
	return s
}
