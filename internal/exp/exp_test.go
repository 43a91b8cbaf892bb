package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// testOptions is small enough for CI but large enough for the paper's shapes
// to emerge.
func testOptions() Options {
	return Options{Seed: 42, N: 150, Items: 600, Lookups: 300, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"Fig3a", "Fig3b", "Fig4", "Fig5a", "Fig5b", "Fig6a", "Fig6b", "Table2",
		"AblationTree", "AblationBypass", "AblationRouting", "Baselines",
		"ExtCaching", "LinkStress", "Churn", "ChurnStorm", "Scale"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("fig5a"); !ok {
		t.Error("ByID not case-insensitive")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a ghost")
	}
}

// TestOptionsNormalize: nothing normalizes Options any more, so the two
// constructors must state every scale field, and the sweep follows Quick.
func TestOptionsNormalize(t *testing.T) {
	for _, o := range []Options{DefaultOptions(), QuickOptions()} {
		if o.Seed == 0 || o.N == 0 || o.Items == 0 || o.Lookups == 0 {
			t.Fatalf("incomplete options: %+v", o)
		}
	}
	if got := (Options{Quick: true}).psPoints(); len(got) != 5 {
		t.Fatalf("quick sweep has %d points", len(got))
	}
	if got := (Options{}).psPoints(); len(got) != 10 {
		t.Fatalf("full sweep has %d points", len(got))
	}
}

func TestFig3aShape(t *testing.T) {
	res, err := RunFig3a(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The analytic minimum sits in the paper's 0.7..0.85 band.
	for _, d := range []string{"2", "3", "4"} {
		opt := res.Values["optimal_ps_delta"+d]
		if opt < 0.55 || opt > 0.95 {
			t.Errorf("delta %s: analytic optimum %v out of band", d, opt)
		}
	}
	// The simulated curve's minimum is away from the pure-structured end.
	if res.Values["sim_argmin_ps"] < 0.5 {
		t.Errorf("simulated join latency minimized at ps=%v; paper says ~0.7+", res.Values["sim_argmin_ps"])
	}
	if len(res.Tables) == 0 || !strings.Contains(res.String(), "p_s") {
		t.Error("missing table output")
	}
}

func TestFig3bShape(t *testing.T) {
	res, err := RunFig3b(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo := res.Values["sim_hops_at_low_ps"]
	hi := res.Values["sim_hops_at_high_ps"]
	if lo <= 0 {
		t.Fatal("no simulated hops at low ps")
	}
	// With finger routing the ring term is logarithmic, so at this small
	// scale the simulated curve is near-flat: the climb+flood hops added
	// at high p_s roughly offset the saved (logarithmic) ring hops. Guard
	// only against material growth.
	if hi > lo*1.35 {
		t.Errorf("lookup hops grew with ps: low=%v high=%v", lo, hi)
	}
	// The analytic curves (what Fig. 3b actually plots) must fall.
	tbl := res.Tables[0]
	firstRow, lastRow := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	first, err1 := strconv.ParseFloat(firstRow[1], 64)
	last, err2 := strconv.ParseFloat(lastRow[1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable cells %q %q", firstRow[1], lastRow[1])
	}
	if first <= last {
		t.Errorf("analytic δ=2 curve not decreasing: %v -> %v", first, last)
	}
}

func TestFig4PlacementShapes(t *testing.T) {
	res, err := RunFig4(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// At high ps, scheme 1 leaves most peers empty; scheme 2 fixes that.
	z1 := res.Values["zerofrac_t-peer_ps0.9"]
	z2 := res.Values["zerofrac_spread_ps0.9"]
	if z1 < 0.5 {
		t.Errorf("scheme 1 empty fraction %v at ps=0.9; paper reports ~0.85", z1)
	}
	if z2 >= z1 {
		t.Errorf("scheme 2 did not reduce the empty fraction: %v vs %v", z2, z1)
	}
	// Scheme 2 is flatter: lower max and lower Gini at high ps.
	if res.Values["gini_spread_ps0.9"] >= res.Values["gini_t-peer_ps0.9"] {
		t.Errorf("scheme 2 gini %v >= scheme 1 gini %v",
			res.Values["gini_spread_ps0.9"], res.Values["gini_t-peer_ps0.9"])
	}
}

func TestFig5aShape(t *testing.T) {
	res, err := RunFig5a(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Near zero below ps=0.5 for every TTL.
	for _, ttl := range []string{"1", "2", "4"} {
		if v := res.Values["fail_ttl"+ttl+"_low_ps"]; v > 0.02 {
			t.Errorf("ttl %s: failure %v at low ps; paper says ~0", ttl, v)
		}
	}
	// At ps=0.9 larger TTLs fail less.
	f1 := res.Values["fail_ttl1_ps0.9"]
	f4 := res.Values["fail_ttl4_ps0.9"]
	if f1 <= f4 {
		t.Errorf("TTL ordering violated at ps=0.9: ttl1=%v ttl4=%v", f1, f4)
	}
	if f1 == 0 {
		t.Error("ttl=1 never failed at ps=0.9; flood radius not binding")
	}
}

func TestFig5bShape(t *testing.T) {
	res, err := RunFig5b(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []string{"0.1", "0.5", "0.9"} {
		base := res.Values["crashfail_ps"+ps+"_base"]
		worst := res.Values["crashfail_ps"+ps+"_worst"]
		if worst <= base {
			t.Errorf("ps=%s: crash failures did not grow: %v -> %v", ps, base, worst)
		}
		// The paper: failure ratio roughly tracks the crashed fraction
		// (lost data). 20% crashed => failures within a loose band; the
		// upper end is wide because t-peers carry disproportionate load
		// at small p_s, so losing one loses many items.
		if worst < 0.05 || worst > 0.8 {
			t.Errorf("ps=%s: worst crash failure %v implausible for 20%% crashes", ps, worst)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := RunTable2(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo := res.Values["connum_ps0_ttl4"]
	hi := res.Values["connum_ps0.9_ttl4"]
	if lo <= 0 {
		t.Fatal("no contacts at ps=0")
	}
	if hi >= lo {
		t.Errorf("connum did not fall with ps: %v -> %v", lo, hi)
	}
	if ratio := res.Values["connum_ratio_ps0.9_vs_ps0"]; ratio > 0.7 {
		t.Errorf("connum at ps=0.9 is %.0f%% of structured; paper reports a large drop", ratio*100)
	}
}

func TestAblationTreeShape(t *testing.T) {
	res, err := RunAblationTree(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["mesh_duplicates_per_query"] <= 0 {
		t.Error("mesh produced no duplicates")
	}
	if res.Values["tree_duplicates_per_query"] != 0 {
		t.Error("tree produced duplicates")
	}
}

func TestBaselinesShape(t *testing.T) {
	res, err := RunBaselines(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["hybrid_ps0.0_failure"] > 0.05 {
		t.Errorf("p_s=0 failure ratio %v; structured lookups should be ~exact", res.Values["hybrid_ps0.0_failure"])
	}
	if res.Values["hybrid_ps0.0_hops"] <= 0 || res.Values["hybrid_ps0.0_latency_ms"] <= 0 || res.Values["hybrid_ps0.7_hops"] <= 0 {
		t.Error("missing hop or latency measurements")
	}
	if res.Values["hybrid_ps0.7_failure"] > 0.1 {
		t.Errorf("hybrid failure %v too high at TTL 4", res.Values["hybrid_ps0.7_failure"])
	}
	if res.Values["kad_failure"] > 0.05 {
		t.Errorf("kademlia failure ratio %v; iterative lookups should be ~exact", res.Values["kad_failure"])
	}
	if res.Values["kad_hops"] <= 0 || res.Values["kad_latency_ms"] <= 0 {
		t.Error("missing kademlia measurements")
	}
}

// TestBaselinesDeterminism is the baseline determinism gate: all arms —
// Gnutella, Kademlia and the hybrid at p_s = 0, 0.3 and 0.7 — must render
// byte-identically across repeated runs at the same seed.
func TestBaselinesDeterminism(t *testing.T) {
	r1, err := RunBaselines(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBaselines(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Fatalf("baselines are not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", r1, r2)
	}
}

// TestAblationRoutingGate is the α-probe acceptance gate: under the same
// fault schedule, the α=3 arm must strictly beat the α=1 baseline on
// failure ratio or latency.
func TestAblationRoutingGate(t *testing.T) {
	res, err := RunAblationRouting(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	f1, f3 := res.Values["alpha1_failure"], res.Values["alpha3_failure"]
	l1, l3 := res.Values["alpha1_latency_ms"], res.Values["alpha3_latency_ms"]
	if !(f3 < f1 || l3 < l1) {
		t.Fatalf("α=3 does not beat α=1 under faults: failure %v vs %v, latency %v vs %v",
			f3, f1, l3, l1)
	}
	if res.Values["alpha3_probes"] <= 0 {
		t.Error("α=3 arm sent no extra probes")
	}
}

func TestResultString(t *testing.T) {
	res := newResult("X")
	res.Values["a"] = 1
	res.Notes = append(res.Notes, "hello")
	out := res.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "note: hello") {
		t.Fatalf("render: %s", out)
	}
}

func TestExtCachingShape(t *testing.T) {
	res, err := RunExtCaching(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["maxserves_cache"] >= res.Values["maxserves_nocache"] {
		t.Errorf("caching did not flatten the hottest peer: %v vs %v",
			res.Values["maxserves_cache"], res.Values["maxserves_nocache"])
	}
}

func TestLinkStressShape(t *testing.T) {
	res, err := RunLinkStress(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["maxstress_basic"] <= 0 || res.Values["maxstress_aware"] <= 0 {
		t.Fatal("link stress not measured")
	}
	// Topology awareness should not make the worst link busier.
	if res.Values["maxstress_aware"] > res.Values["maxstress_basic"]*1.2 {
		t.Errorf("awareness increased max link stress: %v vs %v",
			res.Values["maxstress_aware"], res.Values["maxstress_basic"])
	}
}

func TestChurnShape(t *testing.T) {
	res, err := RunChurn(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Failure grows with churn intensity.
	if res.Values["churnfail_2"] < res.Values["churnfail_0"] {
		t.Errorf("storm churn failed less than calm churn: %v vs %v",
			res.Values["churnfail_2"], res.Values["churnfail_0"])
	}
}

func TestFig6aShape(t *testing.T) {
	o := testOptions()
	o.Lookups = 150 // linear routing is expensive; keep the test snappy
	res, err := RunFig6a(o)
	if err != nil {
		t.Fatal(err)
	}
	// With successor-only routing the latency must fall as ps grows
	// (fewer t-peers on the linear path) — the paper's Fig. 6a shape.
	tbl := res.Tables[0]
	first, err1 := strconv.ParseFloat(tbl.Rows[0][1], 64)
	last, err2 := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][1], 64)
	if err1 != nil || err2 != nil {
		t.Fatal("unparseable latency cells")
	}
	if last >= first {
		t.Errorf("basic latency did not fall with ps: %v -> %v", first, last)
	}
	if res.Values["latency_basic_ps0.7"] <= 0 {
		t.Error("no latency measured at ps=0.7")
	}
}

func TestFig6bShape(t *testing.T) {
	o := testOptions()
	o.Lookups = 150
	res, err := RunFig6b(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["latency_basic_ps0.3"] <= 0 || res.Values["latency_aware8_ps0.3"] <= 0 {
		t.Fatal("latency values missing")
	}
}

func TestAblationBypassShape(t *testing.T) {
	res, err := RunAblationBypass(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["uses_bypass"] == 0 {
		t.Error("bypass mode never used a bypass link")
	}
	if res.Values["ringforwards_bypass"] >= res.Values["ringforwards_nobypass"] {
		t.Errorf("bypass links did not shed ring load: %v vs %v",
			res.Values["ringforwards_bypass"], res.Values["ringforwards_nobypass"])
	}
}

func TestResultCSV(t *testing.T) {
	res, err := RunFig3a(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV()
	if !strings.Contains(csv, "p_s,") || !strings.Contains(csv, "# Fig 3a") {
		t.Fatalf("CSV rendering:\n%s", csv)
	}
}

func TestQuickOptionsSane(t *testing.T) {
	q := QuickOptions()
	if !q.Quick || q.N == 0 || q.Items == 0 || q.Lookups == 0 {
		t.Fatalf("QuickOptions: %+v", q)
	}
}

// TestTinySizesNeverPanic: a size the command line can ask for either runs or
// is refused with an error. An empty key universe (-items 1 where an
// experiment stores half) used to divide by zero, a population below an
// experiment's fixed picks to slice out of range. One worker, so that a panic
// would unwind through this goroutine.
func TestTinySizesNeverPanic(t *testing.T) {
	for _, size := range [][3]int{{1, 1, 6}, {2, 1, 1}, {40, 1, 6}} {
		for _, e := range Registry() {
			if e.ID == "Scale" {
				continue
			}
			t.Run(fmt.Sprintf("%s/n%d_items%d_lookups%d", e.ID, size[0], size[1], size[2]), func(t *testing.T) {
				o := QuickOptions()
				o.N, o.Items, o.Lookups, o.Workers = size[0], size[1], size[2], 1
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("panic: %v", r)
					}
				}()
				if res, err := e.Run(o); err == nil && res == nil {
					t.Error("neither a result nor an error")
				}
			})
		}
	}
}
