package analytic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJoinLatencyEndpoints(t *testing.T) {
	// ps = 0: pure structured; Eq. (1) reduces to log(N/2).
	got := JoinLatency(Params{N: 1000, Ps: 0, Delta: 3})
	want := math.Log2(500)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ps=0: %v, want %v", got, want)
	}
	// ps -> 1: the t-term vanishes.
	got = JoinLatency(Params{N: 1000, Ps: 0.999, Delta: 3})
	if got <= 0 || math.IsInf(got, 0) {
		t.Fatalf("ps~1: %v", got)
	}
}

func TestJoinLatencyUShape(t *testing.T) {
	// The curve must descend from ps=0 to its minimum and the minimum must
	// sit in the band the paper reports (0.6..0.9 for delta 2..4).
	for _, delta := range []float64{2, 3, 4} {
		opt := OptimalJoinPs(1000, delta)
		if opt < 0.55 || opt > 0.95 {
			t.Errorf("delta=%v: optimal ps %v outside [0.55, 0.95]", delta, opt)
		}
		atOpt := JoinLatency(Params{N: 1000, Ps: opt, Delta: delta})
		at0 := JoinLatency(Params{N: 1000, Ps: 0, Delta: delta})
		if atOpt >= at0 {
			t.Errorf("delta=%v: no improvement at optimum (%v vs %v)", delta, atOpt, at0)
		}
	}
}

func TestLargerDeltaLowersJoinLatency(t *testing.T) {
	// "Given system parameter ps, the larger the degree constraint δ, the
	// shorter the join latency" (for ps where the tree term matters).
	for _, ps := range []float64{0.6, 0.7, 0.8, 0.9} {
		l2 := JoinLatency(Params{N: 1000, Ps: ps, Delta: 2})
		l4 := JoinLatency(Params{N: 1000, Ps: ps, Delta: 4})
		if l4 > l2 {
			t.Errorf("ps=%v: delta=4 latency %v > delta=2 latency %v", ps, l4, l2)
		}
	}
}

func TestTJoinHopsMonotone(t *testing.T) {
	// T-join hops decrease as ps grows (fewer t-peers to route through).
	prev := math.Inf(1)
	for ps := 0.0; ps < 1.0; ps += 0.1 {
		h := TJoinHops(Params{N: 1000, Ps: ps})
		if h > prev+1e-9 {
			t.Fatalf("TJoinHops not monotone at ps=%v", ps)
		}
		prev = h
	}
}

func TestSJoinHopsMonotone(t *testing.T) {
	// S-join hops increase with ps (taller trees).
	prev := -1.0
	for ps := 0.1; ps < 0.99; ps += 0.1 {
		h := SJoinHops(Params{Ps: ps, Delta: 3})
		if h < prev-1e-9 {
			t.Fatalf("SJoinHops not monotone at ps=%v", ps)
		}
		prev = h
	}
}

func TestAvgSNetSize(t *testing.T) {
	if AvgSNetSize(0.5) != 1 {
		t.Fatal("ps=0.5 should average one s-peer per s-network")
	}
	if got := AvgSNetSize(0.9); math.Abs(got-9) > 1e-9 {
		t.Fatalf("ps=0.9: %v", got)
	}
	if !math.IsInf(AvgSNetSize(1), 1) {
		t.Fatal("ps=1 should be infinite")
	}
}

func TestPLocalBounds(t *testing.T) {
	f := func(psRaw uint8, nRaw uint16) bool {
		ps := float64(psRaw%100) / 100
		n := float64(nRaw%5000 + 2)
		p := PLocal(Params{N: n, Ps: ps})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFailureRatioBoundsAndShape(t *testing.T) {
	f := func(psRaw, ttlRaw uint8) bool {
		ps := float64(psRaw%95) / 100
		ttl := float64(ttlRaw%6 + 1)
		r := FailureRatio(Params{N: 1000, Ps: ps, Delta: 3, TTL: ttl})
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
	// "The lookup failure ratio increases if ps increases while it
	// decreases when ttl increases."
	lo := FailureRatio(Params{N: 1000, Ps: 0.3, Delta: 3, TTL: 1})
	hi := FailureRatio(Params{N: 1000, Ps: 0.95, Delta: 3, TTL: 1})
	if hi < lo {
		t.Fatalf("failure ratio not increasing in ps: %v -> %v", lo, hi)
	}
	t1 := FailureRatio(Params{N: 1000, Ps: 0.95, Delta: 3, TTL: 1})
	t4 := FailureRatio(Params{N: 1000, Ps: 0.95, Delta: 3, TTL: 4})
	if t4 > t1 {
		t.Fatalf("failure ratio not decreasing in ttl: ttl1=%v ttl4=%v", t1, t4)
	}
}

func TestOutOfRangeNonNegative(t *testing.T) {
	for ps := 0.0; ps < 1; ps += 0.05 {
		for ttl := 1.0; ttl <= 6; ttl++ {
			if v := OutOfRange(Params{Ps: ps, Delta: 3, TTL: ttl}); v < 0 {
				t.Fatalf("negative out-of-range at ps=%v ttl=%v", ps, ttl)
			}
		}
	}
}

func TestLookupLatencyShape(t *testing.T) {
	// Latency roughly flat for small ps, strictly lower at large ps.
	p03 := LookupLatency(Params{N: 1000, Ps: 0.3, Delta: 3, TTL: 4})
	p01 := LookupLatency(Params{N: 1000, Ps: 0.1, Delta: 3, TTL: 4})
	p09 := LookupLatency(Params{N: 1000, Ps: 0.9, Delta: 3, TTL: 4})
	if math.Abs(p03-p01) > 2 {
		t.Fatalf("low-ps region not flat: %v vs %v", p01, p03)
	}
	if p09 >= p03 {
		t.Fatalf("latency did not fall at high ps: %v vs %v", p09, p03)
	}
	// Larger delta => shorter lookup latency at high ps.
	d2 := LookupLatency(Params{N: 1000, Ps: 0.85, Delta: 2, TTL: 4})
	d4 := LookupLatency(Params{N: 1000, Ps: 0.85, Delta: 4, TTL: 4})
	if d4 > d2 {
		t.Fatalf("delta=4 latency %v > delta=2 %v", d4, d2)
	}
}
