package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickstart runs the walkthrough the README points newcomers at and
// checks what it promises: three stores land, three lookups succeed, and the
// ring is still consistent after a t-peer leaves.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	if n := strings.Count(s, "-> landed on peer"); n != 3 {
		t.Errorf("%d stores landed, want 3", n)
	}
	if n := strings.Count(s, " ok: "); n != 3 || strings.Contains(s, "FAILED") {
		t.Errorf("%d lookups succeeded, want 3", n)
	}
	if !strings.Contains(s, "ring still consistent:") {
		t.Error("no \"ring still consistent\" line")
	}
	if t.Failed() {
		t.Log(s)
	}
}
