// Command bench is the repository's benchmark: four fixed-work workloads
// over the two end-to-end paths (a /kv request on a runtime/net cluster, a
// discrete-event sweep), measured from outside by timing calls into the
// layers' exported functions. See README.md for the workloads, the metrics
// and the reasoning behind both; BENCHMARK.json at the repository root is the
// contract the driver checks this program against.
//
// Run it through run.sh from the repository root:
//
//	bash bench/run.sh --workload kv_read --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object; everything else
// (progress, the min/median/max table) goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run prints: the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repResult is one repetition of one workload.
type repResult struct {
	setupS float64 // start of repetition -> first measured op
	runS   float64 // wall time of the fixed measured work
	cpuS   float64 // process CPU (user+system) over the measured window
	heapMB float64 // live heap retained at the end of the window (see window.stop)

	attempted int
	failed    int
	failures  []string // first few are printed

	// tailMs is the mean client latency of the slow tail (see kvTailFrom);
	// DES workloads report their slowest unit instead (see steady).
	tailMs float64

	// unitMs is the wall time of each unit (sweep point, churn epoch) of a
	// DES repetition. The units tile the measured window, and unit i is the
	// same work in every repetition.
	unitMs       []float64
	getMs, putMs []float64 // kv client latencies
	spans        []span    // kv request spans (traced repetition)

	// sig must be identical across the repetitions of a DES workload: same
	// seed, same events, hops and ok counts. Determinism doubles as the
	// output check.
	sig string

	events uint64             // DES events dispatched in the measured window
	layer  map[string]float64 // per-layer values gathered along the way
	traced *traced            // set by a traced repetition
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func (r *repResult) ops() float64 { return float64(r.attempted - r.failed) }

// window measures wall time, process CPU and the live heap around the
// measured work of a repetition.
type window struct {
	start time.Time
	cpu   time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startWindow() window {
	goruntime.GC() // every window starts from a collected heap
	return window{cpu: processCPU(), start: time.Now()}
}

func (w window) stop(r *repResult) {
	r.runS = time.Since(w.start).Seconds()
	r.cpuS = (processCPU() - w.cpu).Seconds()
	// The smallest of five collections 30 ms apart is what the system's
	// state retains. One collection alone also catches whatever replica
	// batches are in flight at that instant (kv_mixed: 19-28 MiB run to
	// run), and HeapInuse would add span fragmentation on top.
	r.heapMB = math.Inf(1)
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(30 * time.Millisecond)
		}
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		r.heapMB = min(r.heapMB, float64(ms.HeapAlloc)/(1<<20))
	}
}

// scale sizes the fixed work of a run. seconds sizes one repetition: its
// operation counts are fixed functions of seconds (so much work per second,
// calibrated on the 2-core reference sandbox so that three repetitions
// measure for about that long), never of how fast the code under test happens
// to be, because the system's cost grows with stored state and only fixed work
// is comparable across commits. reps is how often the repetition is run.
type scale struct {
	seconds float64
	reps    int
}

// perRep is the measured seconds one repetition is sized for.
func (s scale) perRep() float64 { return s.seconds / 3 }

// workload is one benchmark workload.
type workload struct {
	name string
	// rep runs one repetition; with rec non-nil it runs traced.
	rep func(seed int64, sc scale, rec *traceRec) (*repResult, error)
	// des workloads repeat exactly: their repetitions must agree on sig.
	des bool
	// reps is how many repetitions a run makes unless -reps says otherwise.
	// The DES workloads are CPU-bound and feel the shared host most, and
	// their set-up is short: they repeat more often, so that each unit's
	// median rests on more samples spread over a longer stretch of time.
	reps int
}

func workloads() []workload {
	return []workload{
		{name: "kv_read", rep: kvReadRep, reps: 3},
		{name: "kv_mixed", rep: kvMixedRep, reps: 3},
		{name: "fig_sweep", rep: figSweepRep, des: true, reps: 5},
		{name: "des_churn", rep: desChurnRep, des: true, reps: 7},
	}
}

// steady folds the repetitions of a DES workload into one: unit i takes the
// median of its wall times over the repetitions, runS is the sum of the units
// and tailMs the slowest of them, the longest a caller waits for one sweep
// point or churn epoch. The repetitions do identical work unit by unit, and
// the shared host slows a CPU-bound process by up to 40 % for seconds at a
// time; a median per unit drops a slow spell that the median of three whole
// repetitions keeps, and the slowest unit of one repetition is mostly the unit
// the host happened to disturb.
func steady(reps []*repResult) (runS, tailMs float64) {
	across := make([]float64, len(reps))
	for i := range reps[0].unitMs {
		for j, r := range reps {
			across[j] = r.unitMs[i]
		}
		ms := median(across)
		runS += ms / 1000
		tailMs = max(tailMs, ms)
	}
	return runS, tailMs
}

// endToEnd derives the end-to-end metrics from the untraced repetitions: the
// median of each, with min and max printed alongside. On a DES workload
// ops_per_s and tail_ms come from the per-unit medians (see steady).
func endToEnd(name string, des bool, reps []*repResult) map[string]metric {
	cols := []struct {
		name, unit string
		of         func(*repResult) float64
	}{
		{"setup_s", "s", func(r *repResult) float64 { return r.setupS }},
		{"ops_per_s", "1/s", func(r *repResult) float64 { return r.ops() / r.runS }},
		{"tail_ms", "ms", func(r *repResult) float64 { return r.tailMs }},
		{"live_heap_mb", "MiB", func(r *repResult) float64 { return r.heapMB }},
	}
	var steadyRunS, steadyTailMs float64
	if des {
		steadyRunS, steadyTailMs = steady(reps)
	}
	out := make(map[string]metric, len(cols))
	for _, c := range cols {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = c.of(r)
		}
		lo, hi := minMax(xs)
		med := median(xs)
		note := ""
		switch {
		case des && c.name == "ops_per_s":
			med, note = reps[0].ops()/steadyRunS, "  (per-unit medians)"
		case des && c.name == "tail_ms":
			med, note = steadyTailMs, "  (per-unit medians)"
		}
		fmt.Fprintf(os.Stderr, "%-10s %-16s median %12.4f  min %12.4f  max %12.4f  %s%s\n", name, c.name, med, lo, hi, c.unit, note)
		out[c.name] = metric{Value: med, Unit: c.unit}
	}
	return out
}

// maxFailRatio is the share of operations that may fail before a run is
// declared incorrect. The workloads are chosen so that none does.
const maxFailRatio = 0.002

// check applies the gates common to all workloads; with des set the
// repetitions must also agree on their signature.
func check(name string, des bool, reps []*repResult) (attempted, failed int, err error) {
	for i, r := range reps {
		attempted += r.attempted
		failed += r.failed
		for j, f := range r.failures {
			if j == 5 {
				break
			}
			fmt.Fprintf(os.Stderr, "%s rep %d: failed op: %s\n", name, i, f)
		}
		if des && r.sig != reps[0].sig {
			return 0, 0, fmt.Errorf("%s: repetition %d diverged from repetition 0 on the same seed:\n  %s\n  %s", name, i, reps[0].sig, r.sig)
		}
	}
	if attempted < 1 {
		return 0, 0, fmt.Errorf("%s: no operation attempted", name)
	}
	if des {
		fmt.Fprintf(os.Stderr, "%-10s %s\n", name, reps[0].sig)
	}
	if ratio := float64(failed) / float64(attempted); ratio > maxFailRatio {
		return 0, 0, fmt.Errorf("%s: %d of %d operations failed (ratio %.4f > %.4f)", name, failed, attempted, ratio, maxFailRatio)
	}
	return attempted, failed, nil
}

// runWorkload runs one workload under a watchdog: the untraced pass (reps
// repetitions, medians reported) or, with trace set, the traced pass.
func runWorkload(w workload, seed int64, sc scale, trace bool, traceDir string) (*result, error) {
	wd := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v deadline; goroutines:\n", w.name, watchdog)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(1)
	})
	defer wd.Stop()
	if trace {
		return tracedPass(w, seed, sc, traceDir)
	}
	if sc.reps == 0 {
		sc.reps = w.reps
	}
	reps := make([]*repResult, 0, sc.reps)
	for i := 0; i < sc.reps; i++ {
		r, err := w.rep(seed, sc, nil)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, i, err)
		}
		reps = append(reps, r)
	}
	attempted, failed, err := check(w.name, w.des, reps)
	if err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: endToEnd(w.name, w.des, reps)}, nil
}

// watchdog bounds one workload run; the driver allows 180 s.
const watchdog = 170 * time.Second

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: kv_read, kv_mixed, fig_sweep, des_churn or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 12, "sizes the fixed work: three repetitions measure for about this long on the reference sandbox")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
		reps     = flag.Int("reps", 0, "repetitions of the untraced pass, medians are reported; 0 takes each workload's own (3, 3, 5, 7)")
		doSmoke  = flag.Bool("smoke", false, "run every workload, untraced and traced, at about 1/50 scale")
		aa       = flag.Bool("aa", false, "run the untraced pass twice and compare the medians against the bounds in BENCHMARK.json")
		traceDir = flag.String("tracedir", "bench/out", "directory the traced pass writes trace-<workload>.jsonl into")
	)
	flag.Parse()
	if flag.NArg() > 0 || *reps < 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		os.Exit(2)
	}
	sc := scale{seconds: *seconds, reps: *reps}
	var selected []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var err error
	switch {
	case *doSmoke:
		var doc map[string]smokeBoth
		if doc, err = smoke(*seed, *traceDir); err == nil {
			err = printJSON(map[string]any{"workloads": doc})
		}
	case *aa:
		err = runAA(selected, *seed, sc)
	default:
		err = runAndPrint(selected, *seed, sc, *trace != 0, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAndPrint runs the selected workloads and prints the result as the last
// line of standard output: the contract's object for a single workload, an
// object keyed by workload name for several. Nothing is printed unless every
// workload passed its correctness gates.
func runAndPrint(selected []workload, seed int64, sc scale, trace bool, traceDir string) error {
	results := make(map[string]*result, len(selected))
	for _, w := range selected {
		r, err := runWorkload(w, seed, sc, trace, traceDir)
		if err != nil {
			return err
		}
		results[w.name] = r
	}
	var doc any = map[string]any{"workloads": results}
	if len(selected) == 1 {
		doc = results[selected[0].name]
	}
	return printJSON(doc)
}

func printJSON(doc any) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err // a NaN or Inf metric: nothing was measured
	}
	_, err = fmt.Println(string(b))
	return err
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads back.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runAA runs the untraced pass twice on the same code and fails if any
// end-to-end metric of any workload moved by more than its bound: the bounds
// are only usable if the benchmark repeats within them.
func runAA(selected []workload, seed int64, sc scale) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var passes [2]map[string]*result
	for i := range passes {
		passes[i] = make(map[string]*result)
		for _, w := range selected {
			r, err := runWorkload(w, seed, sc, false, "")
			if err != nil {
				return err
			}
			passes[i][w.name] = r
		}
	}
	fmt.Printf("%-10s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	var bad []string
	for _, w := range selected {
		for _, m := range spec.EndToEnd {
			a, b := passes[0][w.name].Metrics[m.Name].Value, passes[1][w.name].Metrics[m.Name].Value
			diff := (b - a) / a
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict = "  DISAGREE"
				bad = append(bad, w.name+"/"+m.Name)
			}
			fmt.Printf("%-10s %-16s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
		if f := passes[0][w.name].Failed + passes[1][w.name].Failed; f > 0 {
			fmt.Printf("%-10s failed ops: %d\n", w.name, f)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("A/A runs disagree beyond the bound on %v", bad)
	}
	return nil
}

// smokeScale is the -smoke sizing: about 1/50 of the default run.
var smokeScale = scale{seconds: 0.72, reps: 1}

// smokeBoth is one workload's part of the -smoke document.
type smokeBoth struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// smoke runs every workload untraced and traced at smoke scale; TestSmoke
// holds the outcome against BENCHMARK.json.
func smoke(seed int64, traceDir string) (map[string]smokeBoth, error) {
	doc := make(map[string]smokeBoth)
	for _, w := range workloads() {
		e, err := runWorkload(w, seed, smokeScale, false, "")
		if err != nil {
			return nil, err
		}
		p, err := runWorkload(w, seed, smokeScale, true, traceDir)
		if err != nil {
			return nil, err
		}
		doc[w.name] = smokeBoth{e, p}
	}
	return doc, nil
}
