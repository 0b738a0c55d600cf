package advisor

import (
	"context"
	"slices"
	"strings"
	"testing"

	"paravis/internal/core"
	"paravis/internal/minic"
	"paravis/internal/sim"
	"paravis/internal/staticcheck"
	"paravis/internal/workloads"
)

func runVersion(t *testing.T, v workloads.GEMMVersion, dim int) *core.RunOutput {
	t.Helper()
	p, err := core.Build(context.Background(), workloads.GEMMSource(v), core.BuildOptions{
		Defines: workloads.GEMMDefines(v),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := workloads.GEMMInputs(dim)
	cfg := sim.DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	cfg.Profile.SamplePeriod = 256
	out, err := p.Run(context.Background(), sim.Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*sim.Buffer{
			"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b),
			"C": sim.NewZeroBuffer(dim * dim),
		},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAdvisorReproducesPaperNarrative checks that each GEMM version's
// diagnosis names the optimization the paper applies next (§V-C).
// hasKind reports whether any finding carries the kind.
func hasKind(findings []Finding, k Kind) bool {
	return slices.ContainsFunc(findings, func(f Finding) bool { return f.Kind == k })
}

func TestAdvisorReproducesPaperNarrative(t *testing.T) {
	dim := 32
	t.Run("naive -> remove critical", func(t *testing.T) {
		f := Advise(runVersion(t, workloads.GEMMNaive, dim))
		if !hasKind(f, KindLockSerialization) {
			t.Fatalf("missing lock-serialization finding:\n%s", Format(f))
		}
	})
	t.Run("no-critical -> vectorize", func(t *testing.T) {
		f := Advise(runVersion(t, workloads.GEMMNoCritical, dim))
		if hasKind(f, KindLockSerialization) {
			t.Fatalf("lock finding should be gone:\n%s", Format(f))
		}
		if !hasKind(f, KindNarrowAccesses) {
			t.Fatalf("missing narrow-accesses finding:\n%s", Format(f))
		}
	})
	t.Run("vectorized -> block", func(t *testing.T) {
		f := Advise(runVersion(t, workloads.GEMMPartialVec, dim))
		if !hasKind(f, KindMemoryBound) {
			t.Fatalf("missing memory-bound finding:\n%s", Format(f))
		}
	})
	t.Run("blocked -> double buffer", func(t *testing.T) {
		f := Advise(runVersion(t, workloads.GEMMBlocked, dim))
		if !hasKind(f, KindDistinctPhases) {
			t.Fatalf("missing distinct-phases finding:\n%s", Format(f))
		}
	})
	t.Run("double buffered -> no phase finding", func(t *testing.T) {
		f := Advise(runVersion(t, workloads.GEMMDoubleBuffered, dim))
		if hasKind(f, KindDistinctPhases) {
			t.Fatalf("distinct-phases finding should be gone:\n%s", Format(f))
		}
	})
}

func TestAdvisorLaunchOverhead(t *testing.T) {
	// A trivially small kernel with large start overhead: the pi scenario.
	p, err := core.Build(context.Background(), workloads.PiSource, core.BuildOptions{Defines: workloads.PiDefines()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.ThreadStart = 25_000
	cfg.MaxCycles = 500_000_000
	out, err := p.Run(context.Background(), sim.Args{
		Ints:   map[string]int64{"steps": 25_600, "threads": 8},
		Floats: map[string]float64{"step": 1.0 / 25_600, "final_sum": 0},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := Advise(out)
	if !hasKind(f, KindLaunchOverhead) {
		t.Fatalf("missing launch-overhead finding:\n%s", Format(f))
	}
	if Top(f).Kind != KindLaunchOverhead {
		t.Errorf("launch overhead should dominate, got %s", Top(f).Kind)
	}
	if Top(f).Severity < Major {
		t.Errorf("severity = %s", Top(f).Severity)
	}
}

func TestAdvisorNoTrace(t *testing.T) {
	f := Advise(&core.RunOutput{})
	if len(f) != 1 || f[0].Kind != KindHealthy {
		t.Fatalf("findings = %+v", f)
	}
	if !strings.Contains(f[0].Evidence, "no trace") {
		t.Errorf("evidence = %s", f[0].Evidence)
	}
}

func TestAdvisorOrderingAndFormat(t *testing.T) {
	out := runVersion(t, workloads.GEMMNaive, 32)
	f := Advise(out)
	for i := 1; i < len(f); i++ {
		if f[i].Severity > f[i-1].Severity {
			t.Fatalf("findings not ordered by severity: %v", f)
		}
	}
	rep := Format(f)
	if !strings.Contains(rep, "evidence:") || !strings.Contains(rep, "action:") {
		t.Errorf("format missing fields:\n%s", rep)
	}
	if Top(nil).Kind != KindHealthy {
		t.Error("Top(nil) should be healthy")
	}
}

func TestSeverityStrings(t *testing.T) {
	if Critical.String() != "critical" || Info.String() != "info" {
		t.Error("severity strings")
	}
}

// TestNarrowAccessesWordingCrossCheck ties the compile-time stall-lint
// rule to this package's profiled narrow-accesses finding: both must
// carry the identical remedy wording, and both must fire on the same
// kernel (GEMM without critical sections, whose B loads are scalar), so
// a static prediction can be checked against the dynamic diagnosis
// verbatim.
func TestNarrowAccessesWordingCrossCheck(t *testing.T) {
	v := workloads.GEMMNoCritical
	ds, _ := staticcheck.CheckSource("gemm-v2", workloads.GEMMSource(v),
		minic.Options{Defines: workloads.GEMMDefines(v)})
	var stallMsg string
	for _, d := range ds {
		if d.Rule == staticcheck.RuleStallLint {
			stallMsg = d.Message
			break
		}
	}
	if stallMsg == "" {
		t.Fatal("static stall-lint did not fire on the no-critical GEMM")
	}
	if !strings.Contains(stallMsg, staticcheck.ActionNarrowAccesses) {
		t.Fatalf("stall-lint message lacks the shared wording: %s", stallMsg)
	}
	f := Advise(runVersion(t, v, 32))
	for _, fd := range f {
		if fd.Kind == KindNarrowAccesses {
			if fd.Action() != staticcheck.ActionNarrowAccesses {
				t.Fatalf("dynamic action diverged from static wording:\n%s", fd.Action())
			}
			return
		}
	}
	t.Fatal("dynamic narrow-accesses finding missing")
}
