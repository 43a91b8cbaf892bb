package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// TestSustainedChurnKeepsInvariants drives two minutes of live Poisson churn
// (joins, graceful leaves and crashes at ~1 event/s against 150 peers) and
// verifies the ring and tree invariants still hold after recovery. This is
// the regression test for the stabilization and repair machinery.
func TestSustainedChurnKeepsInvariants(t *testing.T) {
	sys := newTestSystem(t, 931, func(c *Config) {
		c.Ps = 0.7
		c.HelloEvery = 5 * sim.Second
		c.HelloTimeout = 12 * sim.Second
		c.FingerRefreshEvery = 5 * sim.Second
		c.LookupTimeout = 5 * sim.Second
		c.JoinTimeout = 40 * sim.Second
	})
	if _, _, err := sys.BuildPopulation(PopulationOpts{N: 150}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)
	schedule := workload.PoissonSchedule(sys.Eng().Rand(), workload.ChurnConfig{
		Duration: 120 * sim.Second, JoinRate: 0.5, LeaveRate: 0.25, CrashRate: 0.25,
	})
	stubs := sys.Topo().StubNodes()
	base := sys.Eng().Now()
	for _, ev := range schedule {
		ev := ev
		sys.Eng().At(base+ev.At, func() {
			switch ev.Kind {
			case workload.Join:
				sys.Join(JoinOpts{Host: stubs[sys.Eng().Rand().Intn(len(stubs))], Capacity: 1}, nil)
			default:
				live := sys.Peers()
				if len(live) <= 3 {
					return
				}
				p := live[ev.Peer%len(live)]
				if ev.Kind == workload.Leave {
					p.Leave()
				} else {
					p.Crash()
				}
			}
		})
	}
	sys.Settle(120*sim.Second + 6*sys.Cfg.HelloTimeout)
	sys.Settle(4 * sys.Cfg.HelloTimeout)
	// The audit names every offending t-peer with its pointers; no
	// hand-rolled ring dump is needed to read a failure.
	if err := sys.CheckRing(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckTrees(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The t_state row above holds every promoted s-peer to its new ring
	// state, so the run must have promoted some.
	if sys.Stats().Promotions == 0 {
		t.Fatal("no s-peer substituted a t-peer: the churn exercised no promotion")
	}
}

// TestChurnStormUnderFaults is the randomized churn-storm crash test: epochs
// of concurrent joins, graceful leaves and crashes run over a lossy,
// duplicating, jittery network, and after every epoch the full invariant
// suite must hold. The fault layer stays armed through each churn burst and
// is lifted only for the per-epoch quiescence check: under sustained loss,
// watchdog false positives keep some edge mid-repair at any instant, so the
// invariant contract is convergence once delivery is restored.
func TestChurnStormUnderFaults(t *testing.T) {
	rates := []float64{0, 0.01, 0.05}
	epochs := 20
	if testing.Short() {
		epochs = 6
	}
	for _, rate := range rates {
		rate := rate
		t.Run(fmt.Sprintf("drop=%g", rate), func(t *testing.T) {
			sys := newTestSystem(t, 4242, func(c *Config) {
				c.Ps = 0.7
				hardenedConfig(c)
			})
			fc := simnet.FaultConfig{
				DropRate:  rate,
				DupRate:   rate,
				JitterMax: 10 * sim.Millisecond,
				Seed:      9000 + int64(rate*1000),
			}
			arm := func() { sys.Net().SetFaults(simnet.NewFaults(fc)) }
			arm()
			if _, _, err := sys.BuildPopulation(PopulationOpts{N: 120}); err != nil {
				t.Fatal(err)
			}
			sys.Settle(10 * sim.Second)
			stubs := sys.Topo().StubNodes()
			for epoch := 0; epoch < epochs; epoch++ {
				// One storm burst: nine churn events (joins, graceful
				// leaves, crashes) spread over ~3 seconds.
				for i := 0; i < 9; i++ {
					at := sys.Eng().Now() + sim.Time(i)*300*sim.Millisecond
					switch i % 3 {
					case 0:
						host := stubs[sys.Eng().Rand().Intn(len(stubs))]
						sys.Eng().At(at, func() {
							sys.Join(JoinOpts{Host: host, Capacity: 1}, nil)
						})
					case 1:
						sys.Eng().At(at, func() {
							live := sys.Peers()
							if len(live) <= 5 {
								return
							}
							live[sys.Eng().Rand().Intn(len(live))].Leave()
						})
					default:
						sys.Eng().At(at, func() {
							live := sys.Peers()
							if len(live) <= 5 {
								return
							}
							live[sys.Eng().Rand().Intn(len(live))].Crash()
						})
					}
				}
				sys.Settle(4 * sys.Cfg.HelloTimeout)
				sys.Net().SetFaults(nil)
				sys.Settle(6 * sys.Cfg.HelloTimeout)
				if err := sys.CheckInvariants(); err != nil {
					t.Fatalf("drop=%g epoch %d: %v", rate, epoch, err)
				}
				arm()
			}
			if rate > 0 && sys.Net().Stats().MessagesDropped == 0 {
				t.Fatalf("fault layer armed with drop rate %g but dropped nothing", rate)
			}
		})
	}
}
