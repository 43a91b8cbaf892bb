// Command hybridsim runs one hybrid peer-to-peer simulation with every knob
// exposed and prints a protocol- and performance-level report. It is the
// free-form companion to paperexp: where paperexp regenerates the paper's
// exact tables, hybridsim answers "what happens if ...".
//
// Example:
//
//	hybridsim -n 1000 -ps 0.7 -delta 3 -ttl 4 -items 5000 -lookups 2000
//	hybridsim -ps 0.5 -tracker
//	hybridsim -ps 0.7 -hetero -topoaware -landmarks 12 -bypass
//	hybridsim -ps 0.8 -crash 0.2
//	hybridsim -ps 0.7 -crash 0.2 -droprate 0.05 -duprate 0.05 -jitter 20ms
//	hybridsim -ps 0.7 -partition 30,60
//	hybridsim -ps 0.1,0.3,0.5,0.7,0.9 -workers 4
//	hybridsim -ps 0.7 -trace run.jsonl -manifest run.json -progress
//
// -ps accepts a comma-separated list; the points run concurrently on a
// worker pool over one shared topology and the reports print in list order.
//
// Observability: -trace writes a JSONL event log (one tracer per sweep point,
// concatenated in point order), -manifest writes a machine-readable run
// manifest with per-point metric snapshots, -progress streams per-point
// completion lines to stderr, and -cpuprofile/-memprofile capture pprof
// profiles. None of these change the report output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run binds the flags straight into an exp.Freeform (its protocol half is a
// core.Config), runs it and prints the reports to stdout. All of the
// simulation is exp.RunFreeform; the observability flags are obs.Flags, the
// set cmd/paperexp takes too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := exp.Freeform{Cfg: exp.FreeformConfig()}
	cfg := &p.Cfg
	fs.IntVar(&p.N, "n", 1000, "number of peers")
	psList := fs.String("ps", "0.7", "proportion of s-peers (0..1); comma-separated list sweeps")
	fs.IntVar(&cfg.Delta, "delta", cfg.Delta, "s-network degree constraint")
	fs.IntVar(&cfg.TTL, "ttl", cfg.TTL, "flood TTL")
	fs.IntVar(&p.Items, "items", 5000, "data items to insert")
	fs.IntVar(&p.Lookups, "lookups", 2000, "lookups to measure")
	fs.Int64Var(&p.Seed, "seed", 1, "random seed")
	fs.IntVar(&p.Workers, "workers", 0, "parallel workers for a -ps sweep (0 = all CPUs)")
	placement := fs.String("placement", "spread", "data placement: tpeer | spread")
	fs.BoolVar(&cfg.Heterogeneity, "hetero", cfg.Heterogeneity, "enable link heterogeneity support")
	topoaware := fs.Bool("topoaware", false, "enable landmark binning")
	fs.IntVar(&cfg.Landmarks, "landmarks", 8, "number of landmarks (with -topoaware)")
	fs.BoolVar(&cfg.Bypass, "bypass", cfg.Bypass, "enable bypass links")
	fs.BoolVar(&cfg.TrackerMode, "tracker", cfg.TrackerMode, "BitTorrent-style tracker s-networks")
	fs.Float64Var(&p.Crash, "crash", 0, "fraction of peers to crash before the lookup phase, in [0, 1)")
	fs.BoolVar(&p.Zipf, "zipf", false, "Zipf-skewed lookup popularity instead of uniform")
	fs.BoolVar(&cfg.Caching, "caching", cfg.Caching, "enable the future-work hot-data caching scheme")
	fs.BoolVar(&p.Hist, "hist", false, "record lookup/store histograms and print latency/hop percentiles")
	fs.IntVar(&cfg.LookupAlpha, "alpha", cfg.LookupAlpha, "parallel lookup probes on the t-network (1 = the paper's single walk)")
	route := fs.String("route", "finger", "t-network routing strategy: finger | succ (successor-only, the paper's simulated behavior; lookup timeout 180 s)")

	fs.Float64Var(&p.Faults.DropRate, "droprate", 0, "fault injection: per-message drop probability (0..1)")
	fs.Float64Var(&p.Faults.DupRate, "duprate", 0, "fault injection: per-message duplication probability (0..1)")
	jitter := fs.Duration("jitter", 0, "fault injection: max extra delivery delay per message (e.g. 50ms)")
	partition := fs.String("partition", "", "fault injection: \"start,end\" in simulated seconds; isolates the first half of the stub hosts for that window")
	fs.Int64Var(&p.Faults.Seed, "faultseed", 1, "fault injection RNG seed (independent of -seed)")
	ob := obs.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// The named values: everything else went straight into p.
	for _, f := range strings.Split(*psList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fmt.Fprintf(stderr, "hybridsim: bad -ps value %q: %v\n", f, err)
			return 2
		}
		p.Ps = append(p.Ps, v)
	}
	switch *placement {
	case "tpeer":
		cfg.Placement = core.PlaceAtTPeer
	case "spread":
		cfg.Placement = core.PlaceSpread
	default:
		fmt.Fprintf(stderr, "hybridsim: unknown placement %q (want tpeer or spread)\n", *placement)
		return 2
	}
	r, err := core.ParseRoute(*route)
	if err != nil {
		fmt.Fprintln(stderr, "hybridsim:", err)
		return 2
	}
	cfg.Route = r
	if cfg.Route == core.RouteSuccessor {
		*cfg = exp.SuccessorWalk(*cfg)
	}
	switch {
	case !*topoaware:
		cfg.Landmarks = 0 // §3.2.2's smallest-s-network rule
	case cfg.Landmarks < 1:
		fmt.Fprintf(stderr, "hybridsim: -topoaware needs -landmarks of at least 1, got %d\n", cfg.Landmarks)
		return 2
	}
	p.Faults.JitterMax = sim.Time(jitter.Microseconds())
	if *partition != "" {
		lo, hi, ok := strings.Cut(*partition, ",")
		a, errA := strconv.ParseFloat(strings.TrimSpace(lo), 64)
		b, errB := strconv.ParseFloat(strings.TrimSpace(hi), 64)
		if !ok || errA != nil || errB != nil || a < 0 || b <= a {
			fmt.Fprintf(stderr, "hybridsim: bad -partition %q: want \"start,end\" in seconds with end > start >= 0\n", *partition)
			return 2
		}
		p.PartStart = sim.Time(a * float64(sim.Second))
		p.PartEnd = sim.Time(b * float64(sim.Second))
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, "hybridsim:", err)
		return 2
	}

	if err := ob.Start("hybridsim", p.Seed, p.Workers, nil, stderr); err != nil {
		fmt.Fprintln(stderr, "hybridsim:", err)
		return 1
	}
	defer func() {
		if err := ob.Close(); err != nil {
			fmt.Fprintln(stderr, "hybridsim:", err)
		}
	}()
	p.Obs = ob.Recorder
	// One tracer per sweep point so concurrent points never interleave in the
	// ring; the JSONL file is written sequentially in point order afterwards.
	for _, ps := range p.Ps {
		if tr := ob.Tracer(fmt.Sprintf("ps=%.2f", ps)); tr != nil {
			p.Tracers = append(p.Tracers, tr)
		}
	}

	reports, err := exp.RunFreeform(p)
	for i, rep := range reports {
		if len(p.Ps) > 1 {
			fmt.Fprintf(stdout, "===== ps=%.2f =====\n%s\n", p.Ps[i], rep)
		} else {
			io.WriteString(stdout, rep)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "hybridsim:", err)
		return 1
	}

	if err := ob.WriteTrace(p.Tracers...); err != nil {
		fmt.Fprintln(stderr, "hybridsim:", err)
		return 1
	}
	if err := ob.WriteManifest(); err != nil {
		fmt.Fprintln(stderr, "hybridsim:", err)
		return 1
	}
	return 0
}
