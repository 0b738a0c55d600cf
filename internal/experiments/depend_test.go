package experiments

import (
	"context"
	"testing"
)

// TestDependSoundOnSeedWorkloads is the dependence engine's dynamic
// validation: on every loop the simulator iterated, the measured
// initiation behavior must respect the statically proven recurrence
// floor, and at least one seed loop must carry a non-trivial RecMII
// (the "strictly tighter than the universal floor of 1" case).
func TestDependSoundOnSeedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all seed workloads")
	}
	opts := DefaultOptions()
	opts.Quiet = true
	opts.PiSteps = opts.PiSteps[:1]
	res, err := RunDepend(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	workloadsSeen := map[string]bool{}
	tight := 0
	for _, row := range res.Rows {
		workloadsSeen[row.Workload] = true
		if !row.Sound {
			t.Errorf("%s %s: unsound recurrence floor: recMII=%d iters=%d execs=%d active=%d",
				row.Workload, row.Name, row.RecMII, row.Iters, row.Execs, row.Active)
		}
		if row.RecMII > 1 {
			tight++
		}
	}
	if len(workloadsSeen) != 6 {
		t.Errorf("want rows from 6 workloads (5 GEMM steps + pi), got %d", len(workloadsSeen))
	}
	if tight == 0 {
		t.Error("no loop with a non-trivial RecMII — the recurrence floor never tightened anything")
	}
}
