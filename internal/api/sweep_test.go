package api

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"paravis/internal/core"
	"paravis/internal/perfbound"
	"paravis/internal/staticcheck"
	"paravis/internal/workloads"
)

// sweepUnits are the nine kernels of the benchmark's static_sweep workload
// at its sizes: the six seed units and the three example kernels.
func sweepUnits(t *testing.T) []workloads.Unit {
	us := workloads.Units()
	for _, f := range []struct {
		file   string
		params map[string]int64
	}{
		{"dotprod.mc", map[string]int64{"n": 16384}},
		{"saxpy.mc", map[string]int64{"n": 16384}},
		{"gemm.mc", map[string]int64{"DIM": 64}},
	} {
		src, err := os.ReadFile("../../benchmark/testdata/" + f.file)
		if err != nil {
			t.Fatal(err)
		}
		us = append(us, workloads.Unit{Name: f.file, Source: string(src), Params: f.params})
	}
	return us
}

// sweepUnit builds one unit's vet and perf reports with the calls
// static_sweep makes (which are the /v1/vet and /v1/perf handlers' of the
// commit that defined the benchmark, hint-less CheckPerf included), down
// to the encoded bytes. Vet makes exactly static_sweep's vet calls.
func sweepUnit(t *testing.T, u workloads.Unit) {
	vet := Vet(u.Name, u.Source, u.Defines)
	var buf bytes.Buffer
	if err := Encode(&buf, VetReport{SchemaVersion: Version, Units: []VetUnit{vet}}); err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(context.Background(), u.Source, core.BuildOptions{Defines: u.Defines})
	if err != nil {
		t.Fatal(err)
	}
	cfg := perfbound.DefaultConfig()
	cfg.TripHints = AbsintTripHints(p.Fn, u.Params)
	rep := perfbound.Analyze(p.Kernel, p.Sched, u.Params, cfg)
	pds := staticcheck.CheckPerf(u.Name, p.Kernel, p.Sched, u.Params)
	perf := NewPerfUnit(u.Name, rep, pds, NewDependSummary(p.Fn, u.Params), nil)
	buf.Reset()
	if err := Encode(&buf, PerfReport{SchemaVersion: Version, Units: []PerfUnit{perf}}); err != nil {
		t.Fatal(err)
	}
}

// TestStaticSweepAllocationBudget pins the benchmark claim where tier-1
// sees it: one static_sweep op — vet and perf reports of the nine kernels —
// stays under 55 k allocations. It read 380.6 k before the static tier ran
// on dense per-program forms (the map-based evaluator alone allocated
// 286 k, one map and one carry slice per loop trip), then 70,049 while the
// dependence solver still materialised an overlap interval per (access
// pair, carrying loop, free loop); with the intervals built in scratch,
// allocation-free child walks and counted-loop tests, and a per-kernel
// recurrence scratch it reads about 53.6 k.
func TestStaticSweepAllocationBudget(t *testing.T) {
	us := sweepUnits(t)
	const budget = 55_000
	got := testing.AllocsPerRun(2, func() {
		for _, u := range us {
			sweepUnit(t, u)
		}
	})
	t.Logf("static sweep pass: %.0f allocations", got)
	if got > budget {
		t.Errorf("static sweep pass allocates %.0f, budget %d", got, budget)
	}
}

// clampSrc bounds its loop by a clamped, unbound scalar: the interval
// evaluator of perfbound folds nothing through the if-converted clamps
// (a select on an unknown condition), the abstract interpreter's branch
// refinement proves 30000..40000 trips.
const clampSrc = `
void k(float* A, int n, int m) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(16)
  {
    int id = omp_get_thread_num();
    int len = m;
    if (len > 40000) { len = 40000; }
    if (len < 30000) { len = 30000; }
    for (int i = 0; i < len; i++) {
      A[i * 16 + id] = A[i * 16 + id] + 1.0f;
    }
  }
}
`

// TestAnalyzePerfDiagnosticsAgreeWithReport: the one perf analysis behind
// nymbleperf and /v1/perf derives its diagnostics from the report it
// publishes, so on a loop only absint bounds the roofline finding quotes
// the report's own cycle counts.
func TestAnalyzePerfDiagnosticsAgreeWithReport(t *testing.T) {
	prog, err := core.Build(context.Background(), clampSrc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"n": 16 * 40000}
	u := AnalyzePerf("clamp.mc", prog, params)
	if u.Report == nil || len(u.Report.Loops) != 1 || len(u.Depend) == 0 {
		t.Fatalf("incomplete unit: %+v", u)
	}
	if l := u.Report.Loops[0]; !l.TripsKnown || l.TripsLo != 30000 || l.TripsHi != 40000 {
		t.Fatalf("trips [%d,%d] known=%v, want the absint bracket [30000,40000]", l.TripsLo, l.TripsHi, l.TripsKnown)
	}
	roof := u.Report.Roofline
	if !roof.MemoryBound {
		t.Fatalf("roofline %+v: the kernel was chosen to be memory-bound", roof)
	}
	want := fmt.Sprintf("DRAM needs >= %d cycles vs >= %d compute cycles", roof.MemoryCycles, roof.ComputeCycles)
	found := false
	for _, d := range u.Diagnostics {
		found = found || strings.Contains(d.Message, want)
	}
	if !found {
		t.Errorf("no diagnostic quotes the report (%s): %v", want, u.Diagnostics)
	}
	// The hint-less second analysis the three call sites used to run sees
	// an unbounded loop and contradicts the report.
	for _, d := range staticcheck.CheckPerf("clamp.mc", prog.Kernel, prog.Sched, params) {
		if strings.Contains(d.Message, want) {
			t.Errorf("CheckPerf agrees with the hinted report; the kernel no longer separates them: %v", d)
		}
	}
}

// TestAnalyzePerfOneAbsint: AnalyzePerf feeds the trip brackets and the
// dependence summary's index ranges from one abstract interpretation.
// Its JSON is byte-identical to the composition it replaced, which ran
// the interpreter once for AbsintTripHints and again inside
// NewDependSummary, and it allocates less.
func TestAnalyzePerfOneAbsint(t *testing.T) {
	encode := func(u PerfUnit) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, PerfReport{SchemaVersion: Version, Units: []PerfUnit{u}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, u := range sweepUnits(t) {
		p, err := core.Build(context.Background(), u.Source, core.BuildOptions{Defines: u.Defines})
		if err != nil {
			t.Fatal(err)
		}
		once := func() PerfUnit { return AnalyzePerf(u.Name, p, u.Params) }
		twice := func() PerfUnit {
			cfg := perfbound.DefaultConfig()
			cfg.TripHints = AbsintTripHints(p.Fn, u.Params)
			rep := perfbound.Analyze(p.Kernel, p.Sched, u.Params, cfg)
			return NewPerfUnit(u.Name, rep, staticcheck.PerfDiagnostics(u.Name, rep), NewDependSummary(p.Fn, u.Params), nil)
		}
		if got, want := encode(once()), encode(twice()); !bytes.Equal(got, want) {
			t.Errorf("%s: AnalyzePerf differs from the two-interpretation composition\n got %s\nwant %s", u.Name, got, want)
		}
		a1 := testing.AllocsPerRun(2, func() { once() })
		a2 := testing.AllocsPerRun(2, func() { twice() })
		t.Logf("%s: %.0f allocations, %.0f with two interpretations", u.Name, a1, a2)
		if a1 >= a2 {
			t.Errorf("%s: AnalyzePerf allocates %.0f, no fewer than the two-interpretation %.0f", u.Name, a1, a2)
		}
	}
}
