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

// run parses the flags into an exp.Freeform, runs it and prints the reports
// to stdout. All of the simulation is exp.RunFreeform; the observability
// flags are obs.Flags, the set cmd/paperexp takes too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hybridsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := core.DefaultConfig()
	var (
		n         = fs.Int("n", 1000, "number of peers")
		psList    = fs.String("ps", "0.7", "proportion of s-peers (0..1); comma-separated list sweeps")
		delta     = fs.Int("delta", def.Delta, "s-network degree constraint")
		ttl       = fs.Int("ttl", def.TTL, "flood TTL")
		items     = fs.Int("items", 5000, "data items to insert")
		lookups   = fs.Int("lookups", 2000, "lookups to measure")
		seed      = fs.Int64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "parallel workers for a -ps sweep (0 = all CPUs)")
		placement = fs.String("placement", "spread", "data placement: tpeer | spread")
		hetero    = fs.Bool("hetero", false, "enable link heterogeneity support")
		topoaware = fs.Bool("topoaware", false, "enable landmark binning")
		landmarks = fs.Int("landmarks", def.Landmarks, "number of landmarks (with -topoaware)")
		bypass    = fs.Bool("bypass", false, "enable bypass links")
		tracker   = fs.Bool("tracker", false, "BitTorrent-style tracker s-networks")
		interests = fs.Int("interests", 0, "interest categories (>0 enables interest-based s-networks)")
		crash     = fs.Float64("crash", 0, "fraction of peers to crash before the lookup phase, in [0, 1)")
		zipf      = fs.Bool("zipf", false, "Zipf-skewed lookup popularity instead of uniform")
		walk      = fs.Bool("walk", false, "random-walk s-network search instead of flooding")
		caching   = fs.Bool("caching", false, "enable the future-work hot-data caching scheme")
		hist      = fs.Bool("hist", false, "record lookup/store histograms and print latency/hop percentiles")
		alpha     = fs.Int("alpha", def.LookupAlpha, "parallel lookup probes on the t-network (1 = the paper's single walk)")
		pathcache = fs.Bool("pathcache", false, "enable lookup-path caching (successful lookups deposit route hints)")
		route     = fs.String("route", "finger", "t-network routing strategy: finger | succ (successor-only, the paper's simulated behavior; lookup timeout 180 s)")

		dropRate  = fs.Float64("droprate", 0, "fault injection: per-message drop probability (0..1)")
		dupRate   = fs.Float64("duprate", 0, "fault injection: per-message duplication probability (0..1)")
		jitter    = fs.Duration("jitter", 0, "fault injection: max extra delivery delay per message (e.g. 50ms)")
		partition = fs.String("partition", "", "fault injection: \"start,end\" in simulated seconds; isolates the first half of the stub hosts for that window")
		faultSeed = fs.Int64("faultseed", 1, "fault injection RNG seed (independent of -seed)")

		ob = obs.Flags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	p := exp.Freeform{
		N: *n, Delta: *delta, TTL: *ttl, Items: *items, Lookups: *lookups,
		Seed: *seed, Workers: *workers, Placement: *placement, Route: *route,
		Hetero: *hetero, TopoAware: *topoaware, Landmarks: *landmarks,
		Bypass: *bypass, Tracker: *tracker, Interests: *interests,
		Crash: *crash, Zipf: *zipf, Walk: *walk, Caching: *caching,
		Hist: *hist, Alpha: *alpha, PathCache: *pathcache,
		DropRate: *dropRate, DupRate: *dupRate, Jitter: sim.Time(jitter.Microseconds()),
		FaultSeed: *faultSeed,
	}
	for _, f := range strings.Split(*psList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fmt.Fprintf(stderr, "hybridsim: bad -ps value %q: %v\n", f, err)
			return 2
		}
		p.Ps = append(p.Ps, v)
	}
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

	if err := ob.Start("hybridsim", *seed, *workers, map[string]any{
		"n": *n, "ps": *psList, "delta": *delta, "ttl": *ttl,
		"items": *items, "lookups": *lookups, "placement": *placement,
		"hetero": *hetero, "topoaware": *topoaware, "landmarks": *landmarks,
		"bypass": *bypass, "tracker": *tracker, "interests": *interests,
		"crash": *crash, "zipf": *zipf, "walk": *walk, "caching": *caching,
		"hist": *hist, "alpha": *alpha, "pathcache": *pathcache, "route": *route,
		"droprate": *dropRate, "duprate": *dupRate, "jitter": jitter.String(),
		"partition": *partition, "faultseed": *faultSeed,
	}, stderr); err != nil {
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
