package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// TestServerEndpoints is the in-tree smoke gate for the introspection server:
// a real live-runtime cluster with the full observability stack attached, all
// four endpoints scraped over real HTTP.
func TestServerEndpoints(t *testing.T) {
	rt := live.New(live.Config{Seed: 1, AwaitTimeout: 30 * time.Second})
	defer rt.Close()

	cfg := core.DefaultConfig()
	cfg.Ps = 0.5
	cfg.HelloEvery = 50 * runtime.Millisecond
	cfg.HelloTimeout = 200 * runtime.Millisecond
	cfg.SuppressTimeout = 25 * runtime.Millisecond
	cfg.LookupTimeout = 3 * runtime.Second
	cfg.JoinTimeout = 3 * runtime.Second
	cfg.FingerRefreshEvery = 100 * runtime.Millisecond

	sys, err := core.NewSystem(rt, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1024)
	sys.SetMetrics(reg)
	sys.SetTracer(tr)
	sampler := core.NewHealthSampler(sys, reg, cfg.HelloEvery)
	rt.Do(sampler.Start)

	srv, err := Start(Config{Addr: "127.0.0.1:0", Sys: sys, Reg: reg, Tracer: tr, Sampler: sampler})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	peers, _, err := sys.BuildPopulation(core.PopulationOpts{N: 64})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys.Settle(4 * cfg.HelloEvery)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("smoke-%03d", i)
		if _, err := sys.StoreSync(peers[i%len(peers)], key, "v"); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	okCount := 0
	for i := 0; i < 32; i++ {
		r, err := sys.LookupSync(peers[(i*7)%len(peers)], fmt.Sprintf("smoke-%03d", i))
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if r.OK {
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no lookup succeeded; nothing to scrape")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// /metrics: well-formed exposition with the lookup histogram series.
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE lookup_latency_us histogram",
		`lookup_latency_us_bucket{le="+Inf"}`,
		"lookup_latency_us_count",
		"# TYPE lookup_hops histogram",
		"# TYPE health_live_peers gauge",
		"health_live_peers 64",
		"# TYPE lookup_ok counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}

	// /healthz: a settled cluster must report healthy with a sampled score.
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d body %s", code, body)
	}
	var hz struct {
		Healthy bool             `json:"healthy"`
		Sampled bool             `json:"sampled"`
		Score   core.HealthScore `json:"score"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if !hz.Healthy || !hz.Sampled || hz.Score.LivePeers != 64 {
		t.Fatalf("/healthz = %+v", hz)
	}

	// /ring: JSON summary consistent with the population.
	code, body = get("/ring")
	if code != http.StatusOK {
		t.Fatalf("/ring status %d", code)
	}
	var ring core.RingView
	if err := json.Unmarshal([]byte(body), &ring); err != nil {
		t.Fatalf("/ring not JSON: %v", err)
	}
	if ring.LivePeers != 64 || len(ring.Ring) != ring.LiveTPeers {
		t.Fatalf("/ring = live %d, %d entries for %d t-peers", ring.LivePeers, len(ring.Ring), ring.LiveTPeers)
	}

	// /trace: JSONL tail, bounded by ?n=.
	code, body = get("/trace?n=5")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 || len(lines) > 5 {
		t.Fatalf("/trace?n=5 returned %d lines", len(lines))
	}
	for _, l := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("/trace line %q not JSON: %v", l, err)
		}
	}
	if code, _ := get("/trace?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/trace?n=bogus status %d, want 400", code)
	}
}

// oneWay is the DES runtime with every message from one address to another
// lost: the fault that plants a stale child edge. The parent stops hearing
// the child and drops it a watchdog timeout later, while the child, which
// heard the parent until then, keeps its connect point one timeout more.
type oneWay struct {
	*simnet.Runtime
	from, to runtime.Addr
}

func (r *oneWay) Send(from, to runtime.Addr, size int, msg any) {
	if from != r.from || to != r.to {
		r.Runtime.Send(from, to, size, msg)
	}
}

// TestHealthzNamesInvariantAndAddress: /healthz red says which invariant and
// which address. A stale child edge — a check only the quiescence audit used
// to make — turns it 503 with the edge's two ends in the body; a crash wave
// lists at most 32 violations beside the full counts; the field names the
// smoke scripts and bench/ read are unchanged.
func TestHealthzNamesInvariantAndAddress(t *testing.T) {
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(7)
	rt := &oneWay{Runtime: simnet.NewRuntime(eng, simnet.New(eng, topo, simnet.DefaultConfig())), from: runtime.None}
	cfg := core.DefaultConfig()
	cfg.Ps = 0.6
	sys, err := core.NewSystem(rt, cfg, topo.StubNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.BuildPopulation(core.PopulationOpts{N: 120}); err != nil {
		t.Fatal(err)
	}
	sys.Settle(10 * sim.Second)
	srv, err := Start(Config{Addr: "127.0.0.1:0", Sys: sys, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type healthz struct {
		Healthy bool `json:"healthy"`
		Score   struct {
			core.HealthScore
			Violations []map[string]any `json:"violations"`
		} `json:"score"`
	}
	get := func() (int, healthz, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var hz healthz
		if err := json.Unmarshal(body, &hz); err != nil {
			t.Fatalf("/healthz not JSON: %v\n%s", err, body)
		}
		return resp.StatusCode, hz, string(body)
	}

	code, hz, body := get()
	if code != http.StatusOK || !hz.Healthy || strings.Contains(body, `"violations"`) {
		t.Fatalf("settled system: status %d\n%s", code, body)
	}
	for _, field := range []string{`"healthy"`, `"sampled"`, `"t_us"`, `"live_peers"`, `"live_tpeers"`, `"live_speers"`,
		`"suspected_ptrs"`, `"dead_ring_ptrs"`, `"broken_ring_links"`, `"stree_depth_max"`, `"orphan_speers"`,
		`"delta_violations"`, `"unowned_items"`, `"stuck_ops"`, `"replica_deficit"`} {
		if !strings.Contains(body, field) {
			t.Errorf("/healthz lost its %s field", field)
		}
	}

	child := sys.SPeers()[0]
	parent := child.ConnectPoint().Addr
	rt.from, rt.to = child.Addr, parent
	for end := eng.Now() + 3*cfg.HelloTimeout; code == http.StatusOK && eng.Now() < end; {
		sys.Settle(cfg.HelloEvery)
		code, hz, body = get()
	}
	if code != http.StatusServiceUnavailable || hz.Healthy || hz.Score.UnlistedChildren != 1 || len(hz.Score.Violations) != 1 {
		t.Fatalf("stale child edge %d -> %d: status %d\n%s", child.Addr, parent, code, body)
	}
	v := hz.Score.Violations[0]
	if v["invariant"] != "unlisted_children" || v["addr"] != float64(child.Addr) || v["peer"] != float64(parent) || v["detail"] == "" {
		t.Fatalf("violation %v does not name unlisted_children at %d (peer %d)", v, child.Addr, parent)
	}

	for i, p := range sys.Peers() {
		if i%2 == 0 {
			p.Crash()
		}
	}
	code, hz, body = get()
	s := hz.Score
	if total := s.DeadRingPtrs + s.BrokenRingLinks + s.OrphanSPeers + s.UnlistedChildren + s.RootMismatches; code != http.StatusServiceUnavailable || total <= 32 || len(s.Violations) != 32 {
		t.Fatalf("crash wave: status %d, %d violations counted, %d listed\n%s", code, total, len(s.Violations), body)
	}
}
