// Package repro_test holds one Go benchmark per paper table/figure, each
// regenerating it at a reduced, fixed scale, for profiling while you work:
//
//	go test -bench=Fig3b -benchmem -cpuprofile cpu.out
//
// Nothing reads their timings. The repository benchmark, with bounds and
// per-layer probes (event heap, topology, hash, codec), is `bash bench/run.sh`
// (BENCHMARK.json); the allocation guards are in alloc_test.go.
package repro_test

import (
	"testing"

	"repro/internal/exp"
)

// benchOptions is the fixed scale every per-figure benchmark runs at.
func benchOptions() exp.Options {
	return exp.Options{Seed: 42, N: 120, Items: 400, Lookups: 200, Quick: true}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3aJoinLatency(b *testing.B)     { runExperiment(b, "Fig3a") }
func BenchmarkFig3bLookupLatency(b *testing.B)   { runExperiment(b, "Fig3b") }
func BenchmarkFig4DataDistribution(b *testing.B) { runExperiment(b, "Fig4") }
func BenchmarkFig5aFailureRatio(b *testing.B)    { runExperiment(b, "Fig5a") }
func BenchmarkFig5bCrashFailure(b *testing.B)    { runExperiment(b, "Fig5b") }
func BenchmarkFig6aHeterogeneity(b *testing.B)   { runExperiment(b, "Fig6a") }
func BenchmarkFig6bTopologyAware(b *testing.B)   { runExperiment(b, "Fig6b") }
func BenchmarkTable2Connum(b *testing.B)         { runExperiment(b, "Table2") }
