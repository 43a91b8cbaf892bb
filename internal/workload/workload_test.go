package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestKeysDistinctAndStable(t *testing.T) {
	a := Keys(1000)
	b := Keys(1000)
	seen := make(map[string]bool)
	for i, k := range a {
		if k != b[i] {
			t.Fatal("Keys not stable")
		}
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	}
}

func TestUniformPickerBounds(t *testing.T) {
	p := &UniformPicker{N: 10, Rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 1000; i++ {
		v := p.Pick()
		if v < 0 || v >= 10 {
			t.Fatalf("out of bounds: %d", v)
		}
	}
}

func TestZipfPickerSkewAndBounds(t *testing.T) {
	p, err := NewZipfPicker(rand.New(rand.NewSource(2)), 1.2, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 1000)
	for i := 0; i < 20000; i++ {
		v := p.Pick()
		if v < 0 || v >= 1000 {
			t.Fatalf("out of bounds: %d", v)
		}
		counts[v]++
	}
	head := counts[0] + counts[1] + counts[2]
	tail := counts[500] + counts[501] + counts[502]
	if head <= tail*5 {
		t.Fatalf("zipf not skewed: head=%d tail=%d", head, tail)
	}
}

func TestZipfPickerErrors(t *testing.T) {
	if _, err := NewZipfPicker(rand.New(rand.NewSource(1)), 1.2, 1, 0); err == nil {
		t.Fatal("zero-size universe accepted")
	}
	if _, err := NewZipfPicker(rand.New(rand.NewSource(1)), 0.5, 1, 10); err == nil {
		t.Fatal("invalid s accepted")
	}
}

func TestPoissonScheduleOrderedAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := ChurnConfig{
			Duration:  100 * sim.Second,
			JoinRate:  2,
			LeaveRate: 1,
			CrashRate: 0.5,
		}
		evs := PoissonSchedule(rng, cfg)
		for i, ev := range evs {
			if ev.At < 0 || ev.At >= cfg.Duration {
				return false
			}
			if i > 0 && evs[i].At < evs[i-1].At {
				return false
			}
			if ev.Kind == Join && ev.Peer != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := ChurnConfig{Duration: 1000 * sim.Second, JoinRate: 5}
	evs := PoissonSchedule(rng, cfg)
	// Expect ~5000 events; allow generous slack.
	if len(evs) < 4000 || len(evs) > 6000 {
		t.Fatalf("got %d events for rate 5 over 1000s", len(evs))
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	cfg := ChurnConfig{Duration: 50 * sim.Second, JoinRate: 3, LeaveRate: 2}
	a := PoissonSchedule(rand.New(rand.NewSource(9)), cfg)
	b := PoissonSchedule(rand.New(rand.NewSource(9)), cfg)
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestPoissonZeroRates(t *testing.T) {
	evs := PoissonSchedule(rand.New(rand.NewSource(1)), ChurnConfig{Duration: 10 * sim.Second})
	if len(evs) != 0 {
		t.Fatalf("zero rates produced %d events", len(evs))
	}
}

func TestEventKindString(t *testing.T) {
	if Join.String() != "join" || Leave.String() != "leave" || Crash.String() != "crash" {
		t.Fatal("kind strings")
	}
}

func TestCapacityClasses(t *testing.T) {
	caps := CapacityClasses(300)
	counts := map[float64]int{}
	for _, c := range caps {
		counts[c]++
	}
	if counts[1] != 100 || counts[10] != 100 || counts[math.Sqrt(10)] != 100 {
		t.Fatalf("capacity thirds wrong: %v", counts)
	}
	// The paper: highest capacity is 10x the lowest.
	if caps[2]/caps[0] != 10 {
		t.Fatal("highest/lowest != 10")
	}
}
