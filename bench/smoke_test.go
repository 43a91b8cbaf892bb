package main

import (
	"math"
	"sort"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at about 1/50 scale
// and holds the emitted names against BENCHMARK.json: the guard against the
// harness and the contract drifting apart.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := smoke(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wantW, gotW []string
	for _, w := range spec.Workloads {
		wantW = append(wantW, w.Name)
	}
	for name := range doc {
		gotW = append(gotW, name)
	}
	sameNames(t, "workloads", wantW, gotW)

	wantE, wantP := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		wantE[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		wantP[m.Name] = m.Unit
	}
	for name, both := range doc {
		sameMetrics(t, name+" end_to_end", wantE, both.EndToEnd.Metrics, true)
		sameMetrics(t, name+" per_layer", wantP, both.PerLayer.Metrics, false)
		for _, r := range []*result{both.EndToEnd, both.PerLayer} {
			if !r.Correct || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d", name, r.Correct, r.Attempted)
			}
		}
	}
}

func sameNames(t *testing.T, what string, want, got []string) {
	t.Helper()
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Errorf("%s: BENCHMARK.json lists %v, the harness emits %v", what, want, got)
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: BENCHMARK.json lists %v, the harness emits %v", what, want, got)
			return
		}
	}
}

func sameMetrics(t *testing.T, what string, want map[string]string, got map[string]metric, nonZero bool) {
	t.Helper()
	var w, g []string
	for name := range want {
		w = append(w, name)
	}
	for name, m := range got {
		g = append(g, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", what, name, m.Value)
		}
		if nonZero && m.Value <= 0 {
			t.Errorf("%s: %s = %v, an end-to-end metric is never 0", what, name, m.Value)
		}
		if m.Unit == "" || m.Unit != want[name] {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, want[name])
		}
	}
	sameNames(t, what, w, g)
}
