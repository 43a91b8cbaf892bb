package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// readGolden parses a testdata file of "<id> <sha256>" lines.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if id, sum, ok := strings.Cut(line, " "); ok {
			want[id] = sum
		}
	}
	return want
}

// requireRegisteredIDs fails unless the ids a golden file names are exactly
// the registered experiments bar Scale: an experiment that leaves the
// registry must take its golden entry with it.
func requireRegisteredIDs(t *testing.T, file string, ids map[string]string) {
	t.Helper()
	var got, want []string
	for id := range ids {
		got = append(got, id)
	}
	for _, e := range Registry() {
		if e.ID != "Scale" {
			want = append(want, e.ID)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s names %v, want the registered experiments bar Scale: %v", file, got, want)
	}
}

// checkGolden runs experiment id at QuickOptions (seed 42, one worker), with
// Options.Hist as given, and holds the hash of Result.String() to want.
func checkGolden(t *testing.T, id, want string, hist bool) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	o := QuickOptions()
	o.Workers, o.Hist = 1, hist
	res, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(res.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("output changed:\n%s %s\nwant %q", id, got, want)
	}
}

// TestQuickOutputGolden pins the rendered output of every registered
// experiment at QuickOptions (seed 42, one worker) to the hashes committed in
// testdata/quick_golden.sha256, one "<id> <sha256 of Result.String()>" line
// per experiment. Scale is left out: it prints wall-clock figures. A
// mismatch means a change moved a table; the file is only ever regenerated
// (from the hashes this test prints) by a PR that means to change output.
func TestQuickOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment's quick pass")
	}
	want := readGolden(t, "testdata/quick_golden.sha256")
	requireRegisteredIDs(t, "quick_golden.sha256", want)
	for _, e := range Registry() {
		if e.ID == "Scale" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			checkGolden(t, e.ID, want[e.ID], false)
		})
	}
}

// TestHistOutputGolden is TestQuickOutputGolden with Options.Hist on, for the
// three experiments that append a percentile supplement: quick_golden.sha256
// cannot see that table. Same file format, testdata/hist_golden.sha256, same
// rule for regenerating it.
func TestHistOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments' quick pass")
	}
	want := readGolden(t, "testdata/hist_golden.sha256")
	for _, id := range []string{"Fig3b", "Fig6a", "Fig6b"} {
		t.Run(id, func(t *testing.T) {
			checkGolden(t, id, want[id], true)
		})
	}
}

// TestManifestLabelsGolden pins what a -manifest file names: per experiment,
// the point labels in manifest order and the sorted set of metric keys, run
// at QuickOptions with a recorder attached. Wall times and metric values are
// left out (the first vary, the second are the tables' business). The blocks
// live in testdata/manifest_golden.txt, "<id>" then indented "point <label>"
// lines and one "keys ..." line; a mismatch prints the block to paste.
func TestManifestLabelsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment's quick pass")
	}
	raw, err := os.ReadFile("testdata/manifest_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, block := range strings.Split(strings.TrimSpace(string(raw)), "\n\n") {
		id, _, _ := strings.Cut(block, "\n")
		want[id] = block
	}
	requireRegisteredIDs(t, "manifest_golden.txt", want)
	for _, e := range Registry() {
		if e.ID == "Scale" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			o := QuickOptions()
			o.Workers = 1
			o.Obs = obs.NewRecorder("exp-test", o.Seed, 1, nil)
			if _, err := e.Run(o); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString(e.ID)
			keySet := make(map[string]bool)
			for _, p := range o.Obs.Manifest().Points {
				fmt.Fprintf(&b, "\n  point %s", p.Label)
				for k := range p.Metrics {
					keySet[k] = true
				}
			}
			keys := make([]string, 0, len(keySet))
			for k := range keySet {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "\n  keys %s", strings.Join(keys, " "))
			if got := b.String(); got != want[e.ID] {
				t.Errorf("manifest labels or metric keys changed:\n%s\nwant:\n%s", got, want[e.ID])
			}
		})
	}
}
