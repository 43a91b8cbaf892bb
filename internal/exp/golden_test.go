package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

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
	raw, err := os.ReadFile("testdata/quick_golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if id, sum, ok := strings.Cut(line, " "); ok {
			want[id] = sum
		}
	}
	for _, e := range Registry() {
		if e.ID == "Scale" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			o := QuickOptions()
			o.Workers = 1
			res, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.String()))
			if got := hex.EncodeToString(sum[:]); got != want[e.ID] {
				t.Errorf("output changed:\n%s %s\nwant %q", e.ID, got, want[e.ID])
			}
		})
	}
}
