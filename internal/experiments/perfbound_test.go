package experiments

import (
	"context"
	"testing"
)

// TestBoundsSoundOnSeedWorkloads is the model's soundness property: for
// every seed workload at the canonical parameters, the statically
// predicted cycle bounds must bracket the simulator's measurement —
// lower <= measured <= upper. A violation means the analytical model
// and the simulator disagree about the machine.
func TestBoundsSoundOnSeedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all seed workloads")
	}
	opts := DefaultOptions()
	opts.Quiet = true
	opts.PiSteps = opts.PiSteps[:1]
	res, err := RunBounds(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("want 6 rows (5 GEMM steps + pi), got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Lower <= 0 {
			t.Errorf("%s: lower bound must be positive, got %d", row.Name, row.Lower)
		}
		if !row.Sound {
			t.Errorf("%s: bounds unsound: lower=%d measured=%d upper=%d",
				row.Name, row.Lower, row.Measured, row.Upper)
		}
	}
}

// TestBoundsDisabledProfile checks the model stays sound for the
// "without profiling" baseline the paper compares against.
func TestBoundsDisabledProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all seed workloads")
	}
	opts := DefaultOptions()
	opts.Quiet = true
	opts.PiSteps = opts.PiSteps[:1]
	opts.SimCfg.Profile.Enabled = false
	res, err := RunBounds(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Sound {
			t.Errorf("%s (profiling off): bounds unsound: lower=%d measured=%d upper=%d",
				row.Name, row.Lower, row.Measured, row.Upper)
		}
	}
}

// TestBoundsZeroThreadStart checks E10 under a machine whose threads all
// start together: ThreadStart 0 is a value the simulator accepts, so the
// static model must bracket it from the same configuration.
func TestBoundsZeroThreadStart(t *testing.T) {
	opts := DefaultOptions()
	opts.Quiet = true
	opts.GEMMDim = 16
	opts.PiSteps = []int{6400}
	opts.SimCfg.ThreadStart = 0
	res, err := RunBounds(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Sound {
			t.Errorf("%s (ThreadStart 0): bounds unsound: lower=%d measured=%d upper=%d",
				row.Name, row.Lower, row.Measured, row.Upper)
		}
	}
}
