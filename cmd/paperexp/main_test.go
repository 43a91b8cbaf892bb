package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRefusals: an unknown experiment and a negative size (which used to run
// at the scale's default) are usage errors (exit 2, nothing on stdout); a
// size an experiment cannot run at — these command lines used to end in a
// goroutine trace — is one "paperexp: <id>: ..." line and exit 1.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-run NoSuchFigure", 2},
		{"-run Fig4 -quick -n -5 -items -3", 2},
		{"-run Fig4 -quick -n -1", 2},
		{"-run Fig4 -quick -items -1", 2},
		{"-run Fig4 -quick -lookups -1", 2},
		{"-run Baselines -quick -n 40 -items 1 -lookups 6", 1},
		{"-run AblationTree -quick -n 40 -items 1 -lookups 6", 1},
		{"-run Churn -quick -n 40 -items 1 -lookups 6", 1},
		{"-run AblationBypass -quick -n 1 -items 8 -lookups 8", 1},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr %q", code, tc.code, stderr.String())
			}
			msg := stderr.String()
			if tc.code == 2 && stdout.Len() != 0 {
				t.Fatalf("stdout %q, want nothing", stdout.String())
			}
			if !strings.HasPrefix(msg, "paperexp: ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
				t.Fatalf("stderr %q, want one paperexp: line", msg)
			}
		})
	}
}

// TestObservabilityFilesLeaveStdoutAlone: -trace, -manifest and -progress
// (obs.Flags, shared with cmd/hybridsim, whose test of the same name covers
// the per-point tracers) write their files and stderr lines; stdout is the
// same bytes without them once the wall-time line is dropped.
func TestObservabilityFilesLeaveStdoutAlone(t *testing.T) {
	wall := regexp.MustCompile(`(?m)^\(Fig5a in [0-9.]+s wall\)$`)
	base := "-run Fig5a -quick -n 60 -items 40 -lookups 30"
	var plain, stderr bytes.Buffer
	if code := run(strings.Fields(base), &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	dir := t.TempDir()
	trace, manifest := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.json")
	var observed bytes.Buffer
	if code := run(strings.Fields(base+" -progress -trace "+trace+" -manifest "+manifest), &observed, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !wall.Match(plain.Bytes()) {
		t.Fatalf("no wall-time line in:\n%s", plain.String())
	}
	if !bytes.Equal(wall.ReplaceAll(plain.Bytes(), nil), wall.ReplaceAll(observed.Bytes(), nil)) {
		t.Fatal("stdout differs with -trace -manifest -progress")
	}
	if n := strings.Count(stderr.String(), "[paperexp] point "); n != 5 {
		t.Fatalf("%d progress lines, want 5: %q", n, stderr.String())
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema int
		Tool   string
		Points []struct{ Label string }
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != 1 || m.Tool != "paperexp" || len(m.Points) != 5 {
		t.Fatalf("manifest: schema %d, tool %q, %d points", m.Schema, m.Tool, len(m.Points))
	}
	traced, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(traced, []byte(`"Fig5a"`)) {
		t.Error("trace has no line labelled with the experiment id")
	}
}

// TestManifestRecordsResolvedSizes: the manifest's config is every flag of
// the command line, except that the sizes are the ones the run used, not the
// 0 that stands for the scale's default.
func TestManifestRecordsResolvedSizes(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "Fig4", "-quick", "-manifest", manifest}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Config map[string]any }
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]any{"n": 200.0, "run": "Fig4", "quick": true, "seed": 42.0, "manifest": manifest} {
		if got := m.Config[key]; got != want {
			t.Errorf("manifest config %s = %#v, want %#v", key, got, want)
		}
	}
}
