package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// freeformBase is hybridsim's flag defaults at the size every pinned command
// line starts from: -n 200 -items 300 -lookups 200.
func freeformBase() Freeform {
	return Freeform{
		Cfg: FreeformConfig(), N: 200, Items: 300, Lookups: 200,
		Seed: 1, Ps: []float64{0.7}, Faults: simnet.FaultConfig{Seed: 1},
	}
}

// freeformPinned maps each command line of testdata/freeform_golden.sha256
// (minus the common "-n 200 -items 300 -lookups 200" prefix) to the Freeform
// cmd/hybridsim parses it into.
var freeformPinned = map[string]func(p *Freeform){
	"":                        func(p *Freeform) {},
	" -ps 0.3,0.8 -workers 2": func(p *Freeform) { p.Ps, p.Workers = []float64{0.3, 0.8}, 2 },
	" -ps 0.3,0.8 -workers 1": func(p *Freeform) { p.Ps, p.Workers = []float64{0.3, 0.8}, 1 },
	" -crash 0.15 -droprate 0.02 -duprate 0.01 -jitter 10ms": func(p *Freeform) {
		p.Crash, p.Faults.DropRate, p.Faults.DupRate, p.Faults.JitterMax = 0.15, 0.02, 0.01, 10*sim.Millisecond
	},
	" -partition 5,20": func(p *Freeform) { p.PartStart, p.PartEnd = 5*sim.Second, 20*sim.Second },
	" -hetero -topoaware -bypass": func(p *Freeform) {
		p.Cfg.Heterogeneity, p.Cfg.Landmarks, p.Cfg.Bypass = true, 8, true
	},
	" -tracker": func(p *Freeform) { p.Cfg.TrackerMode = true },
	" -caching -zipf -alpha 3 -hist": func(p *Freeform) {
		p.Cfg.Caching, p.Zipf, p.Cfg.LookupAlpha, p.Hist = true, true, 3, true
	},
	" -route succ": func(p *Freeform) { p.Cfg = SuccessorWalk(p.Cfg) },
	" -crash 0.2":  func(p *Freeform) { p.Crash = 0.2 },
	" -placement tpeer -seed 7 -delta 2 -ttl 3": func(p *Freeform) {
		p.Cfg.Placement, p.Seed, p.Cfg.Delta, p.Cfg.TTL = core.PlaceAtTPeer, 7, 2, 3
	},
	" -topoaware -landmarks 12 -droprate 0.05 -faultseed 9": func(p *Freeform) {
		p.Cfg.Landmarks, p.Faults.DropRate, p.Faults.Seed = 12, 0.05, 9
	},
}

// TestFreeformGolden pins RunFreeform's reports to the SHA-256 of what the
// hybridsim binary printed for the same command line before its simulation
// moved into this package (testdata/freeform_golden.sha256, "<sha256> <args>"
// per line, recorded from the parent commit's binary). The file is never
// regenerated by a refactor; cmd/hybridsim's TestStdoutGolden holds the flag
// parsing to the same lines.
func TestFreeformGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve 200-peer simulations")
	}
	raw, err := os.ReadFile("testdata/freeform_golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "-n 200 -items 300 -lookups 200"
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(freeformPinned) {
		t.Fatalf("%d golden lines, %d pinned parameter sets", len(lines), len(freeformPinned))
	}
	for _, line := range lines {
		want, args, _ := strings.Cut(line, " ")
		t.Run(args, func(t *testing.T) {
			set, ok := freeformPinned[strings.TrimPrefix(args, prefix)]
			if !ok {
				t.Fatalf("no parameter set for %q", args)
			}
			p := freeformBase()
			set(&p)
			reports, err := RunFreeform(p)
			if err != nil {
				t.Fatal(err)
			}
			// What cmd/hybridsim prints: the lone report as is, several under
			// a header each and followed by a blank line.
			out := reports[0]
			if len(reports) > 1 {
				out = ""
				for i, rep := range reports {
					out += fmt.Sprintf("===== ps=%.2f =====\n%s\n", p.Ps[i], rep)
				}
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("output changed: got %s, want %s\n%s", got, want, out)
			}
		})
	}
}

// TestFreeformValidate holds Validate to the values that used to panic
// hybridsim (an empty key set under lookups, a crash fraction past the
// population, an empty population), to the protocol knobs core.Config
// refuses, and to the ones that must keep working.
func TestFreeformValidate(t *testing.T) {
	cases := []struct {
		name string
		set  func(p *Freeform)
		want string // substring of the error; "" = valid
	}{
		{"defaults", func(p *Freeform) {}, ""},
		{"no lookups", func(p *Freeform) { p.Lookups = 0 }, ""},
		{"nothing stored, nothing looked up", func(p *Freeform) { p.Items, p.Lookups = 0, 0 }, ""},
		{"crash just under 1", func(p *Freeform) { p.Crash = 0.99 }, ""},
		{"lookups without items", func(p *Freeform) { p.Items = 0 }, "need at least one stored item"},
		{"crash 1.5", func(p *Freeform) { p.Crash = 1.5 }, "crash fraction"},
		{"crash 1", func(p *Freeform) { p.Crash = 1 }, "crash fraction"},
		{"crash negative", func(p *Freeform) { p.Crash = -0.1 }, "crash fraction"},
		{"n 0", func(p *Freeform) { p.N = 0 }, "at least one peer"},
		{"negative items", func(p *Freeform) { p.Items = -1 }, "must not be negative"},
		{"no points", func(p *Freeform) { p.Ps = nil }, "no p_s point"},
		{"placement", func(p *Freeform) { p.Cfg.Placement = 9 }, "unknown Placement 9"},
		{"route", func(p *Freeform) { p.Cfg.Route = 9 }, "unknown Route 9"},
		{"landmarks 0 unused", func(p *Freeform) { p.Cfg.Landmarks = 0 }, ""},
		{"ttl 0", func(p *Freeform) { p.Cfg.TTL = 0 }, "TTL 0 < 1"},
		{"delta 0", func(p *Freeform) { p.Cfg.Delta = 0 }, "Delta 0 < 2"},
		{"alpha 0", func(p *Freeform) { p.Cfg.LookupAlpha = 0 }, "LookupAlpha 0"},
		{"Landmarks -1", func(p *Freeform) { p.Cfg.Landmarks = -1 }, "Landmarks -1 < 0"},
		{"ps 1.5", func(p *Freeform) { p.Ps = []float64{0.3, 1.5} }, "Ps 1.5 outside"},
		{"tracer count", func(p *Freeform) { p.Ps = []float64{0.3, 0.8}; p.Tracers = make([]*obs.Tracer, 1) }, "1 tracers for 2 points"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := freeformBase()
			c.set(&p)
			err := p.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("valid parameters refused: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			if c.want != "" {
				if _, err := RunFreeform(p); err == nil {
					t.Fatal("RunFreeform ran parameters Validate refuses")
				}
			}
		})
	}
}

// TestFreeformNoLookups runs the smallest report end to end: with no lookups
// the failure percentage is 0, not 0/0.
func TestFreeformNoLookups(t *testing.T) {
	p := freeformBase()
	p.N, p.Items, p.Lookups = 30, 10, 0
	reports, err := RunFreeform(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reports[0], "lookups: 0 issued, 0 failed (0.00%)") {
		t.Fatalf("report:\n%s", reports[0])
	}
}
