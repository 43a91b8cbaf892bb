// Command paperexp regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows or curve series
// the paper reports.
//
// Usage:
//
//	paperexp -list
//	paperexp -run Fig5a
//	paperexp -run all -quick
//	paperexp -run Table2 -n 1000 -lookups 10000 -seed 7
//	paperexp -run Fig3a -workers 1
//	paperexp -run Fig5b -quick -trace fig5b.jsonl -manifest fig5b.json -progress
//
// Sweeps run their points on a worker pool sized to the machine; -workers
// pins the pool size (1 forces the sequential path). Output is byte-identical
// for any worker count.
//
// Observability: -trace writes a JSONL structured event log shared by every
// selected experiment, -manifest writes a machine-readable run manifest with
// one metric snapshot per sweep point, -progress streams per-point completion
// lines to stderr, and -cpuprofile/-memprofile capture pprof profiles. None
// of these change the rendered tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags into exp.Options, runs the selected experiments and
// prints their tables to stdout. The observability flags are obs.Flags, the
// set cmd/hybridsim takes too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID   = fs.String("run", "", "experiment id (see -list) or 'all'")
		list    = fs.Bool("list", false, "list experiments and exit")
		quick   = fs.Bool("quick", false, "scaled-down sweep (fast, coarse)")
		n       = fs.Int("n", 0, "system size (default 1000, or 200 with -quick)")
		items   = fs.Int("items", 0, "data items injected")
		lookups = fs.Int("lookups", 0, "lookups measured")
		seed    = fs.Int64("seed", 42, "random seed")
		workers = fs.Int("workers", 0, "parallel sweep workers (0 = all CPUs, 1 = sequential)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		hist    = fs.Bool("hist", false, "record lookup histograms; lookup experiments append a percentile table")
		ob      = obs.Flags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *n < 0 || *items < 0 || *lookups < 0 {
		fmt.Fprintf(stderr, "paperexp: -n %d, -items %d and -lookups %d must not be negative (0 is the scale's default)\n", *n, *items, *lookups)
		return 2
	}

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range exp.Registry() {
			fmt.Fprintf(stdout, "  %-16s %s\n", e.ID, e.Title)
		}
		if *runID == "" {
			fmt.Fprintln(stdout, "\nrun one with -run <id>, or -run all")
		}
		return 0
	}

	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Hist = *hist
	if *n > 0 {
		opts.N = *n
	}
	if *items > 0 {
		opts.Items = *items
	}
	if *lookups > 0 {
		opts.Lookups = *lookups
	}

	selected := exp.Registry()
	if *runID != "all" {
		e, ok := exp.ByID(*runID)
		if !ok {
			fmt.Fprintf(stderr, "paperexp: unknown experiment %q (use -list)\n", *runID)
			return 2
		}
		selected = []exp.Experiment{e}
	}

	// The sizes as resolved: a 0 flag stands for the scale's default.
	if err := ob.Start("paperexp", opts.Seed, opts.Workers, map[string]any{
		"n": opts.N, "items": opts.Items, "lookups": opts.Lookups,
	}, stderr); err != nil {
		fmt.Fprintln(stderr, "paperexp:", err)
		return 1
	}
	defer func() {
		if err := ob.Close(); err != nil {
			fmt.Fprintln(stderr, "paperexp:", err)
		}
	}()
	opts.Obs = ob.Recorder

	for _, e := range selected {
		fmt.Fprintf(stdout, "### %s — %s (N=%d items=%d lookups=%d seed=%d)\n\n", e.ID, e.Title, opts.N, opts.Items, opts.Lookups, *seed)
		start := time.Now()
		// One tracer per experiment (fresh ring, labeled with the experiment
		// ID), appended to the trace file as each experiment finishes — a
		// failing run included: that is when the event trace is most needed.
		opts.Trace = ob.Tracer(e.ID)
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "paperexp: %s: %v\n", e.ID, err)
		} else {
			render := res.String
			if *csv {
				render = res.CSV
			}
			fmt.Fprintf(stdout, "%s(%s in %.1fs wall)\n\n", render(), e.ID, time.Since(start).Seconds())
		}
		if werr := ob.WriteTrace(opts.Trace); werr != nil {
			fmt.Fprintln(stderr, "paperexp:", werr)
			return 1
		}
		if err != nil {
			return 1
		}
	}

	if err := ob.WriteManifest(); err != nil {
		fmt.Fprintln(stderr, "paperexp:", err)
		return 1
	}
	return 0
}
