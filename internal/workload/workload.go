// Package workload generates the deterministic synthetic workloads driving
// every experiment: key universes, popularity distributions for lookups, and
// churn (join/leave/crash) schedules.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Keys returns n distinct data keys with a stable naming scheme.
func Keys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("item-%06d", i)
	}
	return keys
}

// Picker selects keys for lookups according to a popularity distribution.
type Picker interface {
	// Pick returns an index in [0, n) for a universe of n keys.
	Pick() int
}

// UniformPicker selects keys uniformly at random.
type UniformPicker struct {
	N   int
	Rng *rand.Rand
}

// Pick returns a uniform index.
func (p *UniformPicker) Pick() int { return p.Rng.Intn(p.N) }

// ZipfPicker selects keys with Zipf popularity (s > 1), modelling the heavy
// skew of file-sharing workloads.
type ZipfPicker struct {
	z *rand.Zipf
}

// NewZipfPicker creates a Zipf picker over n keys with exponent s and
// offset v (both per math/rand.NewZipf; s > 1, v >= 1).
func NewZipfPicker(rng *rand.Rand, s, v float64, n int) (*ZipfPicker, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf over %d keys", n)
	}
	z := rand.NewZipf(rng, s, v, uint64(n-1))
	if z == nil {
		return nil, fmt.Errorf("workload: invalid zipf parameters s=%v v=%v", s, v)
	}
	return &ZipfPicker{z: z}, nil
}

// Pick returns a Zipf-distributed index.
func (p *ZipfPicker) Pick() int { return int(p.z.Uint64()) }

// EventKind classifies a churn event.
type EventKind uint8

// Churn event kinds.
const (
	Join EventKind = iota
	Leave
	Crash
)

func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	default:
		return "crash"
	}
}

// ChurnEvent is one scheduled membership change. For Join events Peer is -1
// (the runner allocates the new peer); for Leave and Crash it indexes the
// currently-alive peer population and the runner maps it to a concrete peer.
type ChurnEvent struct {
	At   sim.Time
	Kind EventKind
	Peer int
}

// ChurnConfig parameterizes a Poisson churn schedule.
type ChurnConfig struct {
	// Duration of the churn phase.
	Duration sim.Time
	// JoinRate, LeaveRate, CrashRate are events per simulated second.
	JoinRate, LeaveRate, CrashRate float64
}

// PoissonSchedule draws a time-ordered churn schedule. Leave/Crash events
// carry a random population index the runner resolves at execution time.
func PoissonSchedule(rng *rand.Rand, cfg ChurnConfig) []ChurnEvent {
	var events []ChurnEvent
	gen := func(rate float64, kind EventKind) {
		if rate <= 0 {
			return
		}
		t := sim.Time(0)
		for {
			gap := expDraw(rng, rate)
			t += gap
			if t >= cfg.Duration {
				return
			}
			ev := ChurnEvent{At: t, Kind: kind, Peer: -1}
			if kind != Join {
				ev.Peer = rng.Intn(1 << 30)
			}
			events = append(events, ev)
		}
	}
	gen(cfg.JoinRate, Join)
	gen(cfg.LeaveRate, Leave)
	gen(cfg.CrashRate, Crash)
	sortEvents(events)
	return events
}

// expDraw samples an exponential inter-arrival gap for the given per-second
// rate, in simulated time.
func expDraw(rng *rand.Rand, ratePerSecond float64) sim.Time {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	seconds := -math.Log(u) / ratePerSecond
	return sim.Time(seconds * float64(sim.Second))
}

// sortEvents orders events by time, breaking ties by kind then index so the
// schedule is deterministic.
func sortEvents(events []ChurnEvent) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && less(events[j], events[j-1]); j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

func less(a, b ChurnEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Peer < b.Peer
}

// CapacityClasses assigns the paper's heterogeneous access-link capacities:
// one third of peers at the lowest capacity, one third at the medium, one
// third at the highest, with highest = 10x lowest. The slice index is the
// peer's creation order; assignment is round-robin so every third is exact.
func CapacityClasses(n int) []float64 {
	caps := make([]float64, n)
	classes := [3]float64{1, math.Sqrt(10), 10}
	for i := range caps {
		caps[i] = classes[i%3]
	}
	return caps
}
