package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(EvMsgSend, 0, 0, 1, 2, 0, "")
	tr.SetLabel("x")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer retained state")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EvMsgSend, runtime.Time(i), 0, i, i+1, 0, "")
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	evs := tr.Events()
	for i, e := range evs {
		wantSeq := uint64(7 + i) // oldest retained is seq 7 (events 1..10, last 4 kept)
		if e.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d (events not chronological)", i, e.Seq, wantSeq)
		}
	}
}

func TestTracerLookupEvents(t *testing.T) {
	tr := NewTracer(64)
	tr.Emit(EvLookupStart, 10, 7, 1, -1, 0, "")
	tr.Emit(EvLookupHop, 20, 9, 2, 3, 1, "route")
	tr.Emit(EvLookupHop, 30, 7, 1, 2, 1, "route")
	tr.Emit(EvLookupHit, 40, 7, 2, 1, 2, "")
	evs := tr.LookupEvents(7)
	if len(evs) != 3 {
		t.Fatalf("LookupEvents(7) = %d events, want 3", len(evs))
	}
	if evs[0].Kind != EvLookupStart || evs[2].Kind != EvLookupHit {
		t.Fatalf("wrong event chain: %v -> %v", evs[0].Kind, evs[2].Kind)
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.SetLabel("ps=0.70")
	tr.Emit(EvLookupStart, 1000, 42, 3, -1, 0, "")
	tr.Emit(EvLookupHit, 2000, 42, 5, 3, 2, "flood")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "lookup_start" || lines[0]["point"] != "ps=0.70" {
		t.Fatalf("bad first line: %v", lines[0])
	}
	if lines[1]["kind"] != "lookup_hit" || lines[1]["lookup"] != float64(42) || lines[1]["note"] != "flood" {
		t.Fatalf("bad second line: %v", lines[1])
	}
}

func TestKindStrings(t *testing.T) {
	for k := EvMsgSend; k <= EvLookupFail; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind name = %q", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.sent").Add(5)
	r.Counter("net.sent").Inc()
	r.Gauge("sim.time_s").Set(1.25)
	h := r.Histogram("peer.items")
	h.Record(2)
	h.Record(3)
	h.Record(4)
	snap := r.Snapshot()
	want := map[string]float64{
		"net.sent":         6,
		"sim.time_s":       1.25,
		"peer.items.count": 3,
		"peer.items.p50":   3,
		"peer.items.p999":  4,
		"peer.items.max":   4,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Inc()
				r.Histogram("t").Record(1)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap["c"] != 800 || snap["t.count"] != 800 {
		t.Fatalf("concurrent snapshot = %v, want c=800 t.count=800", snap)
	}
}

func TestRecorderManifest(t *testing.T) {
	rec := NewRecorder("paperexp", 42, 8, map[string]any{"n": 200})
	var wg sync.WaitGroup
	labels := []string{"ps=0.90", "ps=0.10", "ps=0.50"}
	for _, l := range labels {
		wg.Add(1)
		go func(l string) {
			defer wg.Done()
			rec.Point(l, 10*time.Millisecond, map[string]float64{"sim.events": 100})
		}(l)
	}
	wg.Wait()
	m := rec.Manifest()
	if m.Schema != ManifestSchema || m.Tool != "paperexp" || m.Seed != 42 || m.Workers != 8 {
		t.Fatalf("bad manifest header: %+v", m)
	}
	if len(m.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(m.Points))
	}
	// Points must come out sorted by label regardless of completion order.
	for i := 1; i < len(m.Points); i++ {
		if m.Points[i-1].Label > m.Points[i].Label {
			t.Fatalf("points not sorted: %q before %q", m.Points[i-1].Label, m.Points[i].Label)
		}
	}
	if m.Points[0].Metrics["sim.events"] != 100 || m.Points[0].WallSeconds <= 0 {
		t.Fatalf("bad point record: %+v", m.Points[0])
	}
	if _, err := time.Parse(time.RFC3339, m.StartedAt); err != nil {
		t.Fatalf("started_at not RFC3339: %v", err)
	}
}

func TestRecorderProgressOffResultPath(t *testing.T) {
	rec := NewRecorder("t", 1, 1, nil)
	var progress bytes.Buffer
	rec.SetProgress(&progress)
	rec.Point("p1", time.Millisecond, nil)
	if progress.Len() == 0 {
		t.Fatal("no progress output")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	rec.Point("x", time.Second, nil)
	rec.SetProgress(os.Stderr)
	if rec.Manifest() != nil {
		t.Fatal("nil recorder retained state")
	}
	if err := rec.WriteManifest("/nonexistent/never-written.json"); err != nil {
		t.Fatalf("nil WriteManifest: %v", err)
	}
}

func TestWriteManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	rec := NewRecorder("hybridsim", 7, 2, map[string]any{"peers": 50.0})
	rec.Point("ps=0.30", 5*time.Millisecond, map[string]float64{"net.sent": 12})
	if err := rec.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if m.Tool != "hybridsim" || m.Config["peers"] != 50.0 || len(m.Points) != 1 {
		t.Fatalf("round-trip mismatch: %+v", m)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// Both paths empty: stop must still be safe.
	stop2, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}
