package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"paravis/internal/host"
	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
	"paravis/internal/profile"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

func fastCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.ThreadStart = 200
	cfg.MaxCycles = 100_000_000
	return cfg
}

func TestBuildAndRunGEMM(t *testing.T) {
	p, err := Build(context.Background(), workloads.GEMMSource(workloads.GEMMNaive), BuildOptions{
		Defines: workloads.GEMMDefines(workloads.GEMMNaive),
	})
	if err != nil {
		t.Fatal(err)
	}
	dim := 16
	a, b := workloads.GEMMInputs(dim)
	cbuf := sim.NewZeroBuffer(dim * dim)
	out, err := p.Run(context.Background(), sim.Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*sim.Buffer{
			"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b), "C": cbuf,
		},
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.GEMMRef(a, b, dim)
	got := cbuf.Floats()
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-2 {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out.Streams == nil {
		t.Fatal("no trace")
	}
	if err := out.Streams.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.FmaxMHz < 50 {
		t.Errorf("Fmax = %v", out.FmaxMHz)
	}
	if out.Seconds(out.Result.Cycles) <= 0 {
		t.Error("Seconds conversion broken")
	}
}

func TestTraceShowsCriticalAndSpin(t *testing.T) {
	p, err := Build(context.Background(), workloads.GEMMSource(workloads.GEMMNaive), BuildOptions{
		Defines: workloads.GEMMDefines(workloads.GEMMNaive),
	})
	if err != nil {
		t.Fatal(err)
	}
	dim := 16
	a, b := workloads.GEMMInputs(dim)
	out, err := p.Run(context.Background(), sim.Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*sim.Buffer{
			"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b),
			"C": sim.NewZeroBuffer(dim * dim),
		},
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	stats := analysis.NewStreamStats(0, 0)
	if err := out.Streams.Scan(stats); err != nil {
		t.Fatal(err)
	}
	prof := stats.StateProfileTask(0)
	if prof.TotalFraction[profile.StateCritical] == 0 {
		t.Error("no critical time in trace (Fig. 6 expects some)")
	}
	if prof.TotalFraction[profile.StateSpinning] == 0 {
		t.Error("no spinning time in trace (Fig. 6 expects some)")
	}
}

func TestWriteTraceBundle(t *testing.T) {
	p, err := Build(context.Background(), workloads.PiSource, BuildOptions{Defines: workloads.PiDefines()})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(context.Background(), sim.Args{
		Ints:   map[string]int64{"steps": 1024, "threads": 8},
		Floats: map[string]float64{"step": 1.0 / 1024, "final_sum": 0},
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	prv, err := out.WriteTrace(dir, "pi")
	if err != nil {
		t.Fatal(err)
	}
	r, err := paraver.OpenPRV(prv)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	back := analysis.NewStreamStats(0, 0)
	if err := paraver.ScanPRV(r, back); err != nil {
		t.Fatal(err)
	}
	if back.Hdr.NumThreads != 8 {
		t.Errorf("threads = %d", back.Hdr.NumThreads)
	}
	for _, ext := range []string{".pcf", ".row"} {
		if _, err := os.Stat(filepath.Join(dir, "pi"+ext)); err != nil {
			t.Errorf("missing %s: %v", ext, err)
		}
	}
}

func TestCallEndToEndPi(t *testing.T) {
	p, err := Build(context.Background(), workloads.PiSource, BuildOptions{Defines: workloads.PiDefines()})
	if err != nil {
		t.Fatal(err)
	}
	steps := 2048
	ret, out, err := p.Call(context.Background(),
		[]host.Value{host.IntValue(int64(steps)), host.IntValue(8)},
		nil, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The MiniC pi function returns the unscaled sum (as in the paper);
	// scale to compare against pi.
	got := ret.AsFloat() / float64(steps)
	if math.Abs(got-math.Pi) > 1e-2 {
		t.Fatalf("pi = %v", got)
	}
	if out == nil || out.Result == nil {
		t.Fatal("no run output captured")
	}
	if out.Result.TotalFpOps() == 0 {
		t.Error("no FLOPs recorded")
	}
}

func TestAreaOverheadReport(t *testing.T) {
	p, err := Build(context.Background(), workloads.PiSource, BuildOptions{Defines: workloads.PiDefines()})
	if err != nil {
		t.Fatal(err)
	}
	o := p.AreaOverhead(profile.DefaultConfig())
	if o.RegisterPct() <= 0 || o.ALMPct() <= 0 || o.FmaxDeltaMHz() <= 0 {
		t.Errorf("overhead report degenerate: %+v", o)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(context.Background(), "void f() { int x = ; }", BuildOptions{}); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Build(context.Background(), "void f() { int x = 1; x = x; }", BuildOptions{}); err == nil {
		t.Error("missing target region not reported")
	}
}

// TestShadowedVariablesRunCorrectly runs two programs whose variables
// share a name across nested scopes. The first assigns an outer s in a
// loop whose body declares an inner s first; the second maps an int s
// while a float s of an earlier block is out of scope.
func TestShadowedVariablesRunCorrectly(t *testing.T) {
	cases := []struct {
		name, src string
		ints      map[string]int64
		want      float32
	}{
		{"loop carry", `
void f(float* Y, int n) {
  #pragma omp target parallel map(tofrom:Y[0:2]) num_threads(1)
  {
    int s = 0;
    for (int i = 0; i < n; i++) {
      if (i >= 0) { int s = 5; Y[1] = s; }
      s = s + 1;
    }
    Y[0] = s;
  }
}
`, map[string]int64{"n": 10}, 10},
		{"host scalar", `
void f(float* Y, int n) {
  int s = 3;
  if (n > 100) { float s = 1.5f; n = n + 1; }
  #pragma omp target parallel map(to: s) map(tofrom:Y[0:2]) num_threads(1)
  {
    Y[0] = s + 1;
  }
}
`, map[string]int64{"n": 10, "s": 3}, 4},
	}
	for _, c := range cases {
		p, err := Build(context.Background(), c.src, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		y := sim.NewZeroBuffer(2)
		cfg := fastCfg()
		cfg.Profile.Enabled = false
		if _, err := p.Run(context.Background(), sim.Args{Ints: c.ints, Buffers: map[string]*sim.Buffer{"Y": y}}, cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := y.Floats()[0]; got != c.want {
			t.Errorf("%s: Y[0] = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRunWithoutProfilingHasNoTrace(t *testing.T) {
	p, err := Build(context.Background(), workloads.PiSource, BuildOptions{Defines: workloads.PiDefines()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Profile.Enabled = false
	out, err := p.Run(context.Background(), sim.Args{
		Ints:   map[string]int64{"steps": 512, "threads": 8},
		Floats: map[string]float64{"step": 1.0 / 512, "final_sum": 0},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Streams != nil {
		t.Error("trace produced with profiling disabled")
	}
	if _, err := out.WriteTrace(t.TempDir(), "x"); err == nil {
		t.Error("WriteTrace should fail without a trace")
	}
}
