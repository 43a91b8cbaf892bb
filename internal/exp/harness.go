// Package exp is the experiment harness: one registered experiment per table
// and figure in the paper's evaluation (section 6), plus the ablations
// DESIGN.md calls out. Each experiment builds hybrid systems over a
// transit-stub topology, drives the workload, and reports the same rows or
// curves the paper shows.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Options controls experiment scale. An experiment uses every field as
// given; start from DefaultOptions or QuickOptions.
type Options struct {
	// Seed drives every random choice; same seed, same output. Every value,
	// 0 included, is a seed as given.
	Seed int64
	// N is the system size (the paper uses 1,000).
	N int
	// Items is the number of data items injected.
	Items int
	// Lookups is the number of lookups measured.
	Lookups int
	// Quick shrinks the sweep (fewer ps points) for tests and benches.
	Quick bool
	// Workers is the sweep worker-pool size: how many sweep points run
	// concurrently, each on its own simulation engine. 0 means one worker
	// per available CPU; 1 forces a sequential sweep. The rendered output
	// is byte-identical for any value.
	Workers int
	// Trace, when non-nil, receives structured protocol/network events from
	// every system the experiment builds. Tracing never alters results.
	Trace *obs.Tracer
	// Obs, when non-nil, records one PointRecord per sweep point (wall
	// clock plus a metrics snapshot) into the run manifest. Progress and
	// manifest output stay off the result path, so rendered tables remain
	// byte-identical with or without a recorder.
	Obs *obs.Recorder
	// Faults, when non-nil, arms the simnet fault-injection layer (message
	// drop, duplication, delay jitter) on every system the experiment
	// builds. A nil Faults and an all-zero FaultConfig must render
	// byte-identical results; TestFaultLayerOffIsByteIdentical guards that.
	Faults *simnet.FaultConfig
	// Hist attaches a lockless histogram registry to every scenario
	// (lookup/store latency and hop distributions) and appends a percentile
	// table per sweep to the lookup-measuring experiments. Recording never
	// feeds back into the simulation, so the primary tables stay
	// byte-identical with Hist on or off.
	Hist bool
}

// DefaultOptions mirrors the paper's scale.
func DefaultOptions() Options {
	return Options{Seed: 42, N: 1000, Items: 10000, Lookups: 5000}
}

// QuickOptions is a scaled-down configuration for tests and benchmarks.
func QuickOptions() Options {
	return Options{Seed: 42, N: 200, Items: 1000, Lookups: 400, Quick: true}
}

// psPoints returns the ps sweep for the experiment scale.
func (o Options) psPoints() []float64 {
	if o.Quick {
		return []float64{0, 0.3, 0.5, 0.7, 0.9}
	}
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// Result is an experiment's output: human-readable tables plus named scalar
// values the tests and EXPERIMENTS.md assert on.
type Result struct {
	ID     string
	Tables []*metrics.Table
	Values map[string]float64
	Notes  []string
}

// newResult allocates a Result.
func newResult(id string) *Result {
	return &Result{ID: id, Values: make(map[string]float64)}
}

// CSV renders every table as comma-separated values, one block per table
// separated by blank lines, for plotting pipelines.
func (r *Result) CSV() string {
	var b strings.Builder
	for i, t := range r.Tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		if t.Title != "" {
			fmt.Fprintf(&b, "# %s\n", t.Title)
		}
		b.WriteString(t.CSV())
	}
	return b.String()
}

// String renders the result for the CLI.
func (r *Result) String() string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("key values:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-40s %.4f\n", k, r.Values[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

// Registry returns every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "Fig3a", Title: "Average join latency vs p_s (analytic + simulated), delta in {2,3,4}", Run: RunFig3a},
		{ID: "Fig3b", Title: "Average lookup latency vs p_s (analytic + simulated hops)", Run: RunFig3b},
		{ID: "Fig4", Title: "PDF of data items per peer for the two placement schemes", Run: RunFig4},
		{ID: "Fig5a", Title: "Lookup failure ratio vs p_s under TTL in {1,2,4}", Run: RunFig5a},
		{ID: "Fig5b", Title: "Lookup failure ratio under peer crashes", Run: RunFig5b},
		{ID: "Fig6a", Title: "Average lookup latency with/without link heterogeneity", Run: RunFig6a},
		{ID: "Fig6b", Title: "Average lookup latency with/without topology awareness", Run: RunFig6b},
		{ID: "Table2", Title: "Total connum under different p_s and TTL values", Run: RunTable2},
		{ID: "AblationTree", Title: "Ablation: tree s-networks vs mesh flooding (duplicate deliveries)", Run: RunAblationTree},
		{ID: "AblationBypass", Title: "Ablation: bypass links on/off (t-network load and latency)", Run: RunAblationBypass},
		{ID: "AblationRouting", Title: "Ablation: routing seam — α-parallel probes under faults", Run: RunAblationRouting},
		{ID: "Baselines", Title: "Gnutella and Kademlia baselines vs the hybrid system (p_s = 0 is the pure ring)", Run: RunBaselines},
		{ID: "ExtCaching", Title: "Extension: future-work caching scheme under Zipf load", Run: RunExtCaching},
		{ID: "LinkStress", Title: "Extension: physical link stress with/without topology awareness", Run: RunLinkStress},
		{ID: "Churn", Title: "Extension: lookups under live Poisson churn", Run: RunChurn},
		{ID: "ChurnStorm", Title: "Hardening: churn storm under injected faults, invariants checked every epoch", Run: RunChurnStorm},
		{ID: "Scale", Title: "Scale sweep: memory density (peers/GB) and event throughput, 10k to 1M peers", Run: RunScale},
	}
}

// ByID finds an experiment ("all" is handled by the caller).
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
