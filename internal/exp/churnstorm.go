package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// RunChurnStorm is the randomized crash-test harness from the protocol
// hardening work: each arm runs repeated epochs of concurrent joins, graceful
// leaves and crashes over a network injecting message drop, duplication and
// delay jitter at a swept rate. After every epoch the faults are lifted, the
// system settles, and the full invariant suite (ring pointers, tree shape,
// data ownership, watchdog/op-table hygiene, server accounting) must hold —
// any violation fails the experiment with the rate and epoch that exposed it.
// The zero-rate arm keeps the fault layer attached but inert, so the run also
// demonstrates that an all-zero policy is behaviorally identical to none.
func RunChurnStorm(o Options) (*Result, error) {
	res := newResult("ChurnStorm")

	rates := []float64{0, 0.01, 0.05}
	epochs := 20
	if o.Quick {
		epochs = 6
	}
	keys := workload.Keys(o.Items / 2)

	type stormArm struct {
		failure, latency    float64
		dropped, duplicated uint64
		jittered            uint64
		promotions, rejoins int
		peersEnd            int
	}
	arms, err := sweep(o, len(rates), func(i int) (stormArm, error) {
		rate := rates[i]
		fc := simnet.FaultConfig{
			DropRate:  rate,
			DupRate:   rate,
			JitterMax: 10 * sim.Millisecond,
			Seed:      5000 + int64(i),
		}
		oa := o
		oa.Faults = &fc // armed for the build too: joins must survive loss
		cfg := expConfig(0.7)
		sc, err := buildScenario(oa, cfg, o.Seed+970+int64(i), nil, keys)
		if err != nil {
			return stormArm{}, err
		}
		sys := sc.Sys
		stubs := sc.Topo.StubNodes()
		var fs simnet.FaultStats
		accumulate := func() {
			if f := sc.Net.Faults(); f != nil {
				s := f.Stats()
				fs.Dropped += s.Dropped
				fs.Duplicated += s.Duplicated
				fs.Jittered += s.Jittered
				fs.PartitionDropped += s.PartitionDropped
			}
		}
		for epoch := 0; epoch < epochs; epoch++ {
			// One storm burst: nine churn events over ~3 seconds.
			for k := 0; k < 9; k++ {
				at := sc.Eng.Now() + sim.Time(k)*300*sim.Millisecond
				switch k % 3 {
				case 0:
					host := stubs[sc.Eng.Rand().Intn(len(stubs))]
					sc.Eng.At(at, func() {
						sys.Join(core.JoinOpts{Host: host, Capacity: 1}, nil)
					})
				case 1:
					sc.Eng.At(at, func() {
						live := sys.Peers()
						if len(live) <= 5 {
							return
						}
						live[sc.Eng.Rand().Intn(len(live))].Leave()
					})
				default:
					sc.Eng.At(at, func() {
						live := sys.Peers()
						if len(live) <= 5 {
							return
						}
						live[sc.Eng.Rand().Intn(len(live))].Crash()
					})
				}
			}
			sys.Settle(4 * cfg.HelloTimeout)
			// Lift the faults for the quiescence check: under sustained
			// loss some edge is always mid-repair (dropped HELLOs keep
			// producing false crash detections), so the invariant contract
			// is convergence once delivery is restored.
			accumulate()
			sc.Net.SetFaults(nil)
			sys.Settle(6 * cfg.HelloTimeout)
			if err := sys.CheckInvariants(); err != nil {
				return stormArm{}, fmt.Errorf("churn storm drop=%g epoch %d: %w", rate, epoch, err)
			}
			sc.Net.SetFaults(simnet.NewFaults(fc))
		}
		// Measure lookups with the faults still armed: the failure column
		// reports degradation under loss, not post-recovery performance.
		rs, err := sc.lookups(o.Lookups/3, 4, keys, sc.anyLive, func(k int) int { return k })
		if err != nil {
			return stormArm{}, err
		}
		accumulate()
		sc.Net.SetFaults(nil)
		st := sys.Stats()
		sc.observe(o, fmt.Sprintf("ChurnStorm drop=%g", rate))
		return stormArm{
			failure:    failureRatio(rs),
			latency:    meanLatencyMs(rs),
			dropped:    fs.Dropped,
			duplicated: fs.Duplicated,
			jittered:   fs.Jittered,
			promotions: st.Promotions,
			rejoins:    st.Rejoins,
			peersEnd:   sys.NumPeers(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		fmt.Sprintf("Hardening: %d-epoch churn storm under injected faults (p_s=0.7)", epochs),
		"drop/dup rate", "failure", "mean ms", "dropped", "duplicated", "jittered",
		"promotions", "rejoins", "peers end")
	for i, rate := range rates {
		a := arms[i]
		t.AddRow(fmt.Sprintf("%.2f", rate), a.failure, a.latency,
			int(a.dropped), int(a.duplicated), int(a.jittered),
			a.promotions, a.rejoins, a.peersEnd)
		res.Values[fmt.Sprintf("stormfail_%d", i)] = a.failure
		res.Values[fmt.Sprintf("stormdrop_%d", i)] = float64(a.dropped)
	}
	res.Values["storm_epochs"] = float64(epochs)
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"every epoch ends with the full invariant suite checked at quiescence (faults lifted)",
		"rate 0 keeps the fault layer attached but inert, matching the no-faults baseline")
	return res, nil
}
