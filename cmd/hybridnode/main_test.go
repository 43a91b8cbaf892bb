package main

import "testing"

// TestCountsCheckedBeforeTheCluster: a negative -items used to join every
// peer and then panic in workload.Keys, a negative -lookups to end in
// "success -0.00 below minimum", and -k 0, -alpha 0 and -delta 0 were
// silently replaced by their defaults; all are usage errors now, refused with
// the other flag checks before anything is built.
func TestCountsCheckedBeforeTheCluster(t *testing.T) {
	for _, args := range [][]string{
		{"-items", "-1"}, {"-keys", "-1"}, {"-lookups", "-1"},
		{"-k", "0"}, {"-alpha", "0"}, {"-delta", "0"},
		{"-route", "random"}, {"-role", "x"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestNoLookupsSkipsTheSuccessCriterion: with -lookups 0 the rate is 0/0; the
// run passes on its audits and says the criterion was not applied, where it
// used to pass because NaN < 0.75 is false.
func TestNoLookupsSkipsTheSuccessCriterion(t *testing.T) {
	if code := run([]string{"-n", "64", "-items", "5", "-lookups", "0", "-crash", "0"}); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
}
