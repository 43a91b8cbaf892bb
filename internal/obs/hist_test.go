package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistBucketScheme checks the log-linear bucket geometry: contiguous
// coverage (every bucket starts where the previous one ends), correct
// round-trips (a value lands in a bucket that covers it), exactness below
// 2^histSubBits, and ≤12.5% relative width above.
func TestHistBucketScheme(t *testing.T) {
	for b := 1; b < histBuckets; b++ {
		if histLow(b) != histLow(b-1)+histWidth(b-1) {
			t.Fatalf("bucket %d starts at %d, want %d (gap or overlap)",
				b, histLow(b), histLow(b-1)+histWidth(b-1))
		}
	}
	check := func(u uint64) {
		b := histIndex(u)
		if b < 0 || b >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", u, b)
		}
		lo, hi := histLow(b), histLow(b)+histWidth(b)-1
		if u < lo || u > hi {
			t.Fatalf("value %d landed in bucket %d covering [%d, %d]", u, b, lo, hi)
		}
		if u < histSubs*2 && histWidth(b) != 1 {
			t.Fatalf("value %d should have an exact bucket, got width %d", u, histWidth(b))
		}
		if w := histWidth(b); u >= 2*histSubs && float64(w)/float64(lo) > 0.126 {
			t.Fatalf("bucket %d for value %d has relative width %f > 12.5%%", b, u, float64(w)/float64(lo))
		}
	}
	for u := uint64(0); u < 1<<12; u++ {
		check(u)
	}
	for e := uint(3); e < 64; e++ {
		check(1<<e - 1)
		check(1 << e)
		check(1<<e + 1)
	}
	check(math.MaxUint64)
	if histIndex(math.MaxUint64) != histBuckets-1 {
		t.Fatalf("MaxUint64 in bucket %d, want last bucket %d", histIndex(math.MaxUint64), histBuckets-1)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %v, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != 0 || s.P99 != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v, want zero", s)
	}
}

func TestHistQuantileSingleSample(t *testing.T) {
	var h Histogram
	h.Record(7)
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 7", q, got)
		}
	}
}

func TestHistQuantileAllOneBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(5)
	}
	s := h.Snapshot()
	if s.P50 != 5 || s.P90 != 5 || s.P99 != 5 || s.P999 != 5 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("all-one-bucket snapshot = %+v, want every quantile 5", s)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].Count != 1000 {
		t.Fatalf("buckets = %+v, want one bucket of 1000", s.Buckets)
	}
}

// TestHistQuantileNearestRank pins the rounding rule to nearest rank over the
// flattened sample (rank = q*(N-1) rounded half-up, not truncated): values
// 1..10 in the exact-bucket region.
func TestHistQuantileNearestRank(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 10; v++ {
		h.Record(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 6}, {0.95, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	got := h.Quantiles([]float64{0, 0.5, 0.95, 1})
	want := []float64{1, 6, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHistRecordNegativeClamps(t *testing.T) {
	var h Histogram
	h.Record(-12345)
	if h.Count() != 1 || h.Quantile(1) != 0 {
		t.Fatalf("negative record: count=%d q1=%v, want 1 observation of 0", h.Count(), h.Quantile(1))
	}
}

// TestHistogramRecordAllocFree guards the hot path: recording must never
// allocate (scripts/check.sh gates on this test by name).
func TestHistogramRecordAllocFree(t *testing.T) {
	var h Histogram
	v := int64(0)
	avg := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 997
	})
	if avg != 0 {
		t.Fatalf("Histogram.Record allocates %.1f objects/op, want 0", avg)
	}
	reg := NewRegistry()
	reg.Gauge("g")
	g := reg.Gauge("g")
	avg = testing.AllocsPerRun(1000, func() { g.Set(3.14) })
	if avg != 0 {
		t.Fatalf("Gauge.Set allocates %.1f objects/op, want 0", avg)
	}
}

// TestRegistryKindCollisionPanics pins the registry's name-collision
// semantics: registering one name as two different metric kinds is a
// programming error and must panic, not silently shadow.
func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	if c2 := r.Counter("x"); c2 == nil {
		t.Fatal("re-registering the same kind must return the existing metric")
	}
	defer func() {
		m, ok := recover().(string)
		if !ok || !strings.Contains(m, "already registered") {
			t.Fatalf("Gauge on a counter name: recover() = %v, want kind-collision panic", m)
		}
	}()
	r.Gauge("x")
}

// TestWritePromTextGolden pins the Prometheus exposition byte-for-byte for a
// registry with all three metric kinds.
func TestWritePromTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.sent").Add(12)
	r.Gauge("sim.time_s").Set(1.5)
	items := r.Histogram("peer.items")
	items.Record(2)
	items.Record(4)
	h := r.Histogram("lookup.hops")
	h.Record(1)
	h.Record(3)
	h.Record(3)
	h.Record(20)

	const want = `# TYPE lookup_hops histogram
lookup_hops_bucket{le="1"} 1
lookup_hops_bucket{le="3"} 3
lookup_hops_bucket{le="21"} 4
lookup_hops_bucket{le="+Inf"} 4
lookup_hops_sum 27.5
lookup_hops_count 4
# TYPE net_sent counter
net_sent 12
# TYPE peer_items histogram
peer_items_bucket{le="2"} 1
peer_items_bucket{le="4"} 2
peer_items_bucket{le="+Inf"} 2
peer_items_sum 6
peer_items_count 2
# TYPE sim_time_s gauge
sim_time_s 1.5
`
	var buf bytes.Buffer
	if err := r.WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestObsStress hammers the histogram, registry and tracer from 8 goroutines
// while readers snapshot concurrently; run under -race it proves the lockless
// read/write paths are sound, and the final counts prove no update is lost.
func TestObsStress(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
	)
	r := NewRegistry()
	h := r.Histogram("stress.hist")
	tr := NewTracer(512)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(int64(g*perG + i))
				r.Counter("stress.count").Inc()
				r.Gauge("stress.gauge").Set(float64(i))
				r.Histogram("stress.items").Record(1)
				tr.Emit(EvMsgSend, 0, uint64(i), g, g+1, 0, "")
				if i%64 == 0 {
					h.Quantile(0.99)
					r.Snapshot()
					tr.SetLabel("g")
					var buf bytes.Buffer
					if err := r.WritePromText(&buf); err != nil {
						t.Error(err)
						return
					}
					if err := tr.WriteJSONLTail(&buf, 16); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * perG
	if got := h.Count(); got != total {
		t.Fatalf("histogram lost updates: count = %d, want %d", got, total)
	}
	snap := r.Snapshot()
	if snap["stress.count"] != total || snap["stress.items.count"] != total {
		t.Fatalf("registry lost updates: %v", snap)
	}
	if snap["stress.hist.count"] != total {
		t.Fatalf("snapshot histogram count = %v, want %d", snap["stress.hist.count"], total)
	}
}

// TestTracerLabelNeverTorn verifies that an export observes exactly one label
// across all its lines even while SetLabel races it: the label and events are
// captured under a single lock acquisition.
func TestTracerLabelNeverTorn(t *testing.T) {
	tr := NewTracer(256)
	tr.SetLabel("A")
	for i := 0; i < 64; i++ {
		tr.Emit(EvMsgSend, 0, 0, i, i+1, 0, "")
	}
	stop := make(chan struct{})
	var flip sync.WaitGroup
	flip.Add(1)
	go func() {
		defer flip.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				tr.SetLabel("A")
			} else {
				tr.SetLabel("B")
			}
		}
	}()
	for round := 0; round < 200; round++ {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(&buf)
		seen := map[string]bool{}
		for sc.Scan() {
			var m struct {
				Point string `json:"point"`
			}
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatal(err)
			}
			seen[m.Point] = true
		}
		if len(seen) != 1 {
			t.Fatalf("export %d saw %d distinct labels %v, want exactly 1", round, len(seen), seen)
		}
	}
	close(stop)
	flip.Wait()
}

func TestWriteJSONLTail(t *testing.T) {
	tr := NewTracer(32)
	for i := 0; i < 10; i++ {
		tr.Emit(EvMsgSend, 0, 0, i, i+1, 0, "")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONLTail(&buf, 3); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var seqs []uint64
	for sc.Scan() {
		var m struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, m.Seq)
	}
	if len(seqs) != 3 || seqs[0] != 8 || seqs[2] != 10 {
		t.Fatalf("tail(3) seqs = %v, want [8 9 10]", seqs)
	}
}
