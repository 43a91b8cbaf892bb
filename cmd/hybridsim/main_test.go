package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestStdoutGolden runs every command line pinned in
// internal/exp/testdata/freeform_golden.sha256 through the real flag parsing
// and compares stdout with the hash the parent commit's binary printed (see
// exp.TestFreeformGolden, which pins the same lines below the flags).
func TestStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve 200-peer simulations")
	}
	raw, err := os.ReadFile("../../internal/exp/testdata/freeform_golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want, args, _ := strings.Cut(line, " ")
		t.Run(args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("stdout changed: got %s, want %s\n%s", got, want, stdout.String())
			}
		})
	}
}

// TestBadFlagValues: values that used to panic the binary, protocol knobs
// that used to be silently replaced by their defaults (-ttl 0 ran TTL 4), and
// the ones that were already refused exit 2 with one line on stderr and
// nothing on stdout.
func TestBadFlagValues(t *testing.T) {
	for _, args := range []string{
		"-items 0 -lookups 10",
		"-crash 1.5",
		"-n 0",
		"-placement nowhere",
		"-route random",
		"-ps 0.5,abc",
		"-partition 5,3",
		"-ttl 0",
		"-delta 0",
		"-alpha 0",
		"-topoaware -landmarks 0",
	} {
		t.Run(args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			msg := stderr.String()
			if stdout.Len() != 0 || !strings.HasPrefix(msg, "hybridsim: ") || strings.Count(msg, "\n") != 1 {
				t.Fatalf("stdout %q, stderr %q", stdout.String(), msg)
			}
		})
	}
}

// TestObservabilityFilesLeaveStdoutAlone: -trace, -manifest and -progress
// write their files and stderr lines; stdout is the same bytes without them,
// the manifest has one point per -ps value with the counters bench/ and the
// docs read, and its config holds every flag -h lists, typed.
func TestObservabilityFilesLeaveStdoutAlone(t *testing.T) {
	base := "-n 60 -items 40 -lookups 30 -ps 0.3,0.8"
	var plain, stderr bytes.Buffer
	if code := run(strings.Fields(base), &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	dir := t.TempDir()
	trace, manifest := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.json")
	var observed bytes.Buffer
	stderr.Reset()
	if code := run(strings.Fields(base+" -progress -trace "+trace+" -manifest "+manifest), &observed, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Fatal("stdout differs with -trace -manifest -progress")
	}
	if n := strings.Count(stderr.String(), "[hybridsim] point "); n != 2 {
		t.Fatalf("%d progress lines, want 2: %q", n, stderr.String())
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema int
		Config map[string]any
		Points []struct {
			Label   string
			Metrics map[string]float64
		}
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != 1 || len(m.Points) != 2 {
		t.Fatalf("manifest: schema %d, %d points", m.Schema, len(m.Points))
	}
	var help bytes.Buffer
	run([]string{"-h"}, io.Discard, &help)
	flags := regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(help.String(), -1)
	if len(flags) < 30 {
		t.Fatalf("-h lists %d flags:\n%s", len(flags), help.String())
	}
	for _, f := range flags {
		if _, ok := m.Config[f[1]]; !ok {
			t.Errorf("manifest config has no %q", f[1])
		}
	}
	for key, want := range map[string]any{"delta": 3.0, "hetero": false, "jitter": "0s", "seed": 1.0, "ps": "0.3,0.8", "n": 60.0} {
		if got := m.Config[key]; got != want {
			t.Errorf("manifest config %s = %#v, want %#v", key, got, want)
		}
	}
	for _, pt := range m.Points {
		for _, key := range []string{"sim.events", "net.sent", "core.peers", "lookup.ok", "lookup.failed", "lookup.latency_us.p99"} {
			if _, ok := pt.Metrics[key]; !ok {
				t.Errorf("point %s: no %q in the manifest", pt.Label, key)
			}
		}
	}
	traced, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{`"ps=0.30"`, `"ps=0.80"`} {
		if !bytes.Contains(traced, []byte(label)) {
			t.Errorf("trace has no line labelled %s", label)
		}
	}
}
