package exp

import (
	"errors"
	"fmt"
	"testing"
)

// TestParallelSweepDeterminism is the regression test for the worker-pool
// sweep runner: the same experiment at Workers:1 (forced sequential path) and
// Workers:8 (oversubscribed pool on any machine) must render byte-identical
// CSV. Topology sharing, result collection and table assembly may not depend
// on goroutine scheduling.
func TestParallelSweepDeterminism(t *testing.T) {
	for _, id := range []string{"Fig3a", "Fig5a", "Table2"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		t.Run(id, func(t *testing.T) {
			seq := testOptions()
			seq.Workers = 1
			par := testOptions()
			par.Workers = 8

			rs, err := e.Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := e.Run(par)
			if err != nil {
				t.Fatal(err)
			}
			if rs.CSV() != rp.CSV() {
				t.Errorf("%s: Workers:1 and Workers:8 CSV differ\n--- sequential ---\n%s\n--- parallel ---\n%s",
					id, rs.CSV(), rp.CSV())
			}
		})
	}
}

func TestSweepOrderAndErrors(t *testing.T) {
	o := Options{Workers: 4}

	// Results land at their own index regardless of scheduling.
	got, err := sweep(o, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}

	// The error reported is the lowest-index one, matching what a
	// sequential run would have returned first.
	wantErr := errors.New("boom-3")
	_, err = sweep(o, 10, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("boom-%d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("sweep error = %v, want %v", err, wantErr)
	}

	// Workers:1 uses the sequential path and short-circuits like a loop.
	calls := 0
	_, err = sweep(Options{Workers: 1}, 10, func(i int) (int, error) {
		calls++
		return 0, errors.New("first")
	})
	if err == nil || calls != 1 {
		t.Fatalf("sequential sweep: err=%v calls=%d, want an error after 1 call", err, calls)
	}
}

// TestSeedZeroSentinel: Seed 0 is a seed like any other, not a request for
// the default one, so a run at seed 0 differs from a run at seed 42.
func TestSeedZeroSentinel(t *testing.T) {
	render := func(seed int64) string {
		o := QuickOptions()
		o.Seed = seed
		res, err := RunFig4(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	if render(0) == render(42) {
		t.Fatal("Seed 0 ran the default seed 42")
	}
}
