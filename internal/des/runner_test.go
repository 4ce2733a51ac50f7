package des

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestRunnerMatchesRunDAG pins the refactor: a reused Runner must produce
// statistics identical to a fresh RunDAG on every run, across several
// circuits and machine shapes.
func TestRunnerMatchesRunDAG(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		c    *circuit.Circuit
		cfg  Config
	}{
		{"adder8-tight", gen.CarryLookahead(8).Circuit, cfg(2, 1, 6)},
		{"adder16", gen.CarryLookahead(16).Circuit, cfg(4, 4, 60)},
		{"adder64", gen.CarryLookahead(64).Circuit, cfg(9, 12, 700)},
	}
	for _, tc := range cases {
		d := circuit.BuildDAG(tc.c)
		want, err := RunDAG(ctx, d, tc.cfg)
		if err != nil {
			t.Fatalf("%s: RunDAG: %v", tc.name, err)
		}
		r, err := NewRunner(d, tc.cfg)
		if err != nil {
			t.Fatalf("%s: NewRunner: %v", tc.name, err)
		}
		for run := 0; run < 3; run++ {
			got, err := r.Run(ctx)
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, run, err)
			}
			if got != want {
				t.Errorf("%s run %d: stats %+v, want %+v", tc.name, run, got, want)
			}
		}
	}
}

// TestRunnerRejectsInvalidConfig keeps validation at construction time, so
// a Runner can never be built around a config Run would refuse.
func TestRunnerRejectsInvalidConfig(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(8).Circuit)
	if _, err := NewRunner(d, Config{}); err == nil {
		t.Fatal("NewRunner accepted a zero config")
	}
}

// TestRunnerCancellation verifies a reused Runner still honors context
// cancellation mid-run and recovers cleanly on the next run.
func TestRunnerCancellation(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	r, err := NewRunner(d, cfg(9, 12, 700))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("cancelled run returned no error")
	}
	want, err := RunDAG(context.Background(), d, cfg(9, 12, 700))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("run after cancellation: stats %+v, want %+v", got, want)
	}
}

// TestRunnerAllocationFree is the satellite's contract: after the first run
// grows the waiter lists to their high-water mark, replaying the 64-bit
// adder performs zero allocations.
func TestRunnerAllocationFree(t *testing.T) {
	d := circuit.BuildDAG(gen.CarryLookahead(64).Circuit)
	r, err := NewRunner(d, cfg(9, 12, 700))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Run(ctx); err != nil { // warm the waiter backing arrays
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state Run allocates %.1f times per run, want 0", avg)
	}
}
