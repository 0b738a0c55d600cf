package experiments

// Differential soundness suite for the abstract interpreter: every claim
// absint makes about a seed workload is replayed against a full
// simulation of the same binary. A loop proven unreachable must never
// start an iteration; a proven trip bracket [lo, hi] must contain the
// measured iterations-per-execution for every loop the simulator tracks;
// and no access in a workload that runs to completion may carry a proven
// out-of-bounds verdict.

import (
	"context"
	"testing"

	"paravis/internal/absint"
	"paravis/internal/core"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// checkAbsintAgainstSim replays one converged analysis against the
// simulator's per-loop counters. The simulator names its ledger records
// by the lowered graph name, which for loops is the same "for@line:col"
// join key absint emits, so claims line up by name.
//
// Absint brackets source-level trips; the simulator counts lowered-graph
// iteration starts. Lowering changes the count in two known, bounded
// ways — a vectorized loop retires up to VectorLanes source iterations
// per graph iteration, and a data-dependent loop starts one extra
// iteration frame for the failing exit check — so the differential
// bracket is execs*floor(lo/lanes) <= iters <= execs*(hi+1). Anything
// outside that is a genuine soundness violation.
func checkAbsintAgainstSim(t *testing.T, p *core.Program, env map[string]int64, r *sim.Result) {
	t.Helper()
	ai := absint.Analyze(p.Fn, absint.Options{Env: env})
	if !ai.OK {
		t.Fatal("abstract interpretation did not converge on a seed workload")
	}
	for _, a := range ai.Accesses {
		if a.Verdict == absint.OOB {
			t.Errorf("%s access to %q at %s proven out of bounds, yet the simulation completed",
				map[bool]string{true: "write", false: "read"}[a.Write], a.Array, a.Pos)
		}
	}
	lanes := int64(1)
	if p.Kernel.VectorLanes > 1 {
		lanes = int64(p.Kernel.VectorLanes)
	}
	matched := 0
	for _, lf := range ai.Loops {
		ls, ok := r.Loop(lf.Name)
		if !ok {
			continue // loop not lowered to its own graph (e.g. folded away)
		}
		matched++
		iters, execs := ls.Iters, ls.Execs
		if !lf.Reachable {
			if iters != 0 {
				t.Errorf("loop %s proven unreachable but simulated %d iterations", lf.Name, iters)
			}
			continue
		}
		if lf.Trips.HasLo && iters < execs*(lf.Trips.Lo/lanes) {
			t.Errorf("loop %s: measured %d iterations below %d executions x proven lower trip %d (lanes %d)",
				lf.Name, iters, execs, lf.Trips.Lo, lanes)
		}
		if lf.Trips.HasHi && iters > execs*(lf.Trips.Hi+1) {
			t.Errorf("loop %s: measured %d iterations exceeds %d executions x (proven upper trip %d + exit check)",
				lf.Name, iters, execs, lf.Trips.Hi)
		}
	}
	if len(ai.Loops) > 0 && matched == 0 {
		t.Errorf("no absint loop matched a simulated loop graph: join key drift? sim records %v", r.Loops)
	}
}

// TestAbsintSoundOnSeedSimulations runs the suite over the five GEMM
// versions and the pi kernel.
func TestAbsintSoundOnSeedSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all six workloads")
	}
	ctx := context.Background()
	const dim, threads = 32, 4

	for _, v := range workloads.AllGEMMVersions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			p, err := buildGEMM(ctx, v, threads)
			if err != nil {
				t.Fatal(err)
			}
			run, err := RunGEMM(ctx, v, dim, threads, sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !run.Correct {
				t.Fatal("seed workload simulated incorrectly")
			}
			checkAbsintAgainstSim(t, p, map[string]int64{"DIM": dim}, run.Out.Result)
		})
	}

	t.Run("pi", func(t *testing.T) {
		p, err := buildPi(ctx)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Quiet = true
		opts.PiSteps = []int{25600}
		pi, err := RunPi(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		env := map[string]int64{"steps": 25600, "threads": piNT}
		checkAbsintAgainstSim(t, p, env, pi.Runs[0].Out.Result)
	})
}
