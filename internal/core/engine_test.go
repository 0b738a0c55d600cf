package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// gemmRun runs p as an 8×8 naive GEMM without profiling and returns the
// result and the C matrix it wrote.
func gemmRun(p *Program) (*sim.Result, []float32, error) {
	const dim = 8
	a, b := workloads.GEMMInputs(dim)
	c := sim.NewZeroBuffer(dim * dim)
	cfg := fastCfg()
	cfg.Profile.Enabled = false
	out, err := p.Run(context.Background(), sim.Args{
		Ints:    map[string]int64{"DIM": dim},
		Buffers: map[string]*sim.Buffer{"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b), "C": c},
	}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return out.Result, c.Floats(), nil
}

func mustGEMMRun(t *testing.T, p *Program) (*sim.Result, []float32) {
	res, c, err := gemmRun(p)
	if err != nil {
		t.Fatal(err)
	}
	return res, c
}

func buildGEMM(t *testing.T) *Program {
	p, err := Build(context.Background(), workloads.GEMMSource(workloads.GEMMNaive), BuildOptions{
		Defines: workloads.GEMMDefines(workloads.GEMMNaive),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentRunsCompileOnce: Build leaves the datapath uncompiled, and
// eight concurrent first Runs of one program compile it once — every run
// sees the same CK and produces the same result (run it under -race).
func TestConcurrentRunsCompileOnce(t *testing.T) {
	p := buildGEMM(t)
	if p.CK != nil {
		t.Fatal("Build compiled the datapath")
	}
	const runs = 8
	var (
		wg   sync.WaitGroup
		res  [runs]*sim.Result
		outs [runs][]float32
		errs [runs]error
		cks  [runs]*hw.CKernel
	)
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], outs[i], errs[i] = gemmRun(p)
			cks[i] = p.CK
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
	}
	for i := range runs {
		if cks[i] == nil || cks[i] != cks[0] {
			t.Errorf("run %d saw CK %p, run 0 saw %p", i, cks[i], cks[0])
		}
		if !reflect.DeepEqual(res[i], res[0]) || !reflect.DeepEqual(outs[i], outs[0]) {
			t.Errorf("run %d: %d cycles, %d loops, C %v; run 0: %d cycles, %d loops, C %v",
				i, res[i].Cycles, len(res[i].Loops), outs[i], res[0].Cycles, len(res[0].Loops), outs[0])
		}
	}
}

// TestPresetCKRunsAsGiven: a Program literal whose CK is already compiled
// (the benchmark's decomposed build) runs that datapath, and its results
// equal those of the program Build returns.
func TestPresetCKRunsAsGiven(t *testing.T) {
	built := buildGEMM(t)
	ck, err := hw.Compile(built.Kernel, built.Sched)
	if err != nil {
		t.Fatal(err)
	}
	lit := &Program{Source: built.Source, AST: built.AST, Fn: built.Fn, Target: built.Target,
		Kernel: built.Kernel, Sched: built.Sched, CK: ck}
	got, gotC := mustGEMMRun(t, lit)
	if lit.CK != ck {
		t.Error("Run replaced the preset CK")
	}
	want, wantC := mustGEMMRun(t, built)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotC, wantC) {
		t.Errorf("preset CK: %d cycles, C %v; built: %d cycles, C %v", got.Cycles, gotC, want.Cycles, wantC)
	}
}

// TestBuildCompilesNoEngine: Build over the six seeds allocates no more
// than TestCompileAllocs lets parse, lower and schedule allocate, so the
// datapath (the hw layer) is not among what it builds.
func TestBuildCompilesNoEngine(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	ceiling := 0.0
	for _, c := range compileCeilings[:3] {
		ceiling += c
	}
	total := 0.0
	for _, u := range workloads.Units() {
		opts := BuildOptions{Defines: u.Defines}
		total += testing.AllocsPerRun(5, func() {
			if _, err := Build(context.Background(), u.Source, opts); err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
		})
	}
	t.Logf("Build over the six seeds: %.0f allocations, ceiling %.0f", total, ceiling)
	if total > ceiling {
		t.Errorf("Build allocates %.0f objects over the six seeds, ceiling %.0f", total, ceiling)
	}
}
