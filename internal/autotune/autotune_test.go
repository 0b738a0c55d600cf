package autotune_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"paravis/internal/autotune"
	"paravis/internal/core"
	"paravis/internal/minic"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

// canonGEMM prints a seed GEMM version in the same canonical form the
// search operates in (defines folded, printer fixpoint).
func canonGEMM(t *testing.T, v workloads.GEMMVersion) string {
	t.Helper()
	p, err := minic.Parse(workloads.GEMMSource(v), minic.Options{Defines: workloads.GEMMDefines(v)})
	if err != nil {
		t.Fatalf("parse seed v%d: %v", v, err)
	}
	re, err := minic.Parse(minic.Print(p), minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatalf("reparse seed v%d: %v", v, err)
	}
	return minic.Print(re)
}

// TestGEMMLadderRediscovery is the ground-truth acceptance test of the
// issue: starting from the naive critical-section GEMM, the search must
// rediscover the paper's hand-optimized sequence on its own —
// redistribute, then BRAM blocking, then double buffering — and the
// winner's simulator-measured cycles must beat the baseline and sit
// inside its perfbound bracket.
func TestGEMMLadderRediscovery(t *testing.T) {
	res, err := autotune.Optimize(context.Background(), "gemm-naive",
		workloads.GEMMSource(workloads.GEMMNaive),
		autotune.Options{
			Defines: workloads.GEMMDefines(workloads.GEMMNaive),
			Params:  map[string]int64{"DIM": 64},
		})
	if err != nil {
		t.Fatal(err)
	}

	wantPasses := []string{transform.PassRedistribute, transform.PassBlockBRAM, transform.PassDoubleBuffer}
	if len(res.WinnerSteps) != len(wantPasses) {
		t.Fatalf("winner steps = %+v, want passes %v", res.WinnerSteps, wantPasses)
	}
	for i, p := range wantPasses {
		if res.WinnerSteps[i].Pass != p {
			t.Errorf("step %d = %s, want %s", i, res.WinnerSteps[i].Pass, p)
		}
	}
	bb := res.WinnerSteps[1].Params
	if bb["bs"] != 8 || bb["vec"] != 1 {
		t.Errorf("block-bram params = %v, want bs=8 vec=1", bb)
	}

	if res.WinnerCycles >= res.BaselineCycles {
		t.Errorf("winner %d cycles not better than baseline %d", res.WinnerCycles, res.BaselineCycles)
	}
	if res.WinnerCycles < res.WinnerLower || (res.WinnerUpperKnown && res.WinnerCycles > res.WinnerUpper) {
		t.Errorf("winner cycles %d outside bracket [%d, %d]", res.WinnerCycles, res.WinnerLower, res.WinnerUpper)
	}

	// The discovered source is byte-identical to the hand-written
	// double-buffered kernel of the paper.
	if want := canonGEMM(t, workloads.GEMMDoubleBuffered); res.WinnerSource != want {
		t.Errorf("winner source differs from hand-written v5:\n--- got ---\n%s\n--- want ---\n%s", res.WinnerSource, want)
	}

	if res.SimsRun > 32 {
		t.Errorf("SimsRun = %d exceeds the default budget of 32", res.SimsRun)
	}

	// Every simulated candidate's emitted source was vetted during the
	// search; double-check the winner independently.
	for _, d := range core.Vet("winner", res.WinnerSource, core.BuildOptions{VectorLanes: 4}) {
		if d.Severity == staticcheck.SevError {
			t.Errorf("winner source has vet error: %s", d)
		}
	}
}

// gemm16 is the small search the size-independent properties are checked
// on: naive GEMM at DIM=16.
func gemm16(ctx context.Context, budget, rounds, workers int) (*autotune.Result, error) {
	return autotune.Optimize(ctx, "gemm-naive",
		workloads.GEMMSource(workloads.GEMMNaive),
		autotune.Options{
			Defines:   workloads.GEMMDefines(workloads.GEMMNaive),
			Params:    map[string]int64{"DIM": 16},
			Budget:    autotune.Budget{Candidates: budget},
			MaxRounds: rounds,
			Workers:   workers,
		})
}

// TestBudgetRespected pins the hard budget: a search allowed N
// simulations runs at most N, and every eligible candidate beyond the
// budget is marked rather than silently dropped.
func TestBudgetRespected(t *testing.T) {
	res, err := gemm16(context.Background(), 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimsRun > 4 {
		t.Errorf("SimsRun = %d, budget was 4", res.SimsRun)
	}
	sims, capped := 0, 0
	for _, c := range res.Candidates {
		if c.Simulated {
			sims++
		}
		if c.Verdict == autotune.VerdictBudget {
			capped++
		}
	}
	if sims > 4 {
		t.Errorf("%d candidates carry measurements, budget was 4", sims)
	}
	if capped == 0 {
		t.Errorf("no candidate marked %q despite tiny budget", autotune.VerdictBudget)
	}
}

// TestBudgetEndsTheSearch: a round that starts with the budget spent can
// simulate nothing and so elect no winner, so the search stops instead.
// Both budgets run out in a round that elects a winner, which would
// otherwise make the search start one more round.
func TestBudgetEndsTheSearch(t *testing.T) {
	for _, budget := range []int{4, 12} {
		res, err := gemm16(context.Background(), budget, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.SimsRun != budget {
			t.Fatalf("budget %d: SimsRun = %d, want the budget spent", budget, res.SimsRun)
		}
		// r is the round whose simulations spent the budget.
		r, sims := 0, 0
		for _, c := range res.Candidates {
			if c.Simulated {
				sims++
				if sims == budget {
					fmt.Sscanf(c.Name, "r%d:", &r)
				}
			}
		}
		if r == 0 {
			t.Fatalf("budget %d: %d candidates carry measurements", budget, sims)
		}
		if !strings.HasPrefix(res.Winner, fmt.Sprintf("r%d:", r)) {
			t.Errorf("budget %d: winner %q was not elected in round %d", budget, res.Winner, r)
		}
		if res.Rounds != r {
			t.Errorf("budget %d: Rounds = %d, the budget ran out in round %d", budget, res.Rounds, r)
		}
		next := fmt.Sprintf("r%d:", r+1)
		for _, c := range res.Candidates {
			if strings.HasPrefix(c.Name, next) {
				t.Errorf("budget %d: row %s after the budget ran out in round %d", budget, c.Name, r)
			}
		}
	}
}

// TestBaselineRunError: a baseline that builds but cannot run (here its
// DIM argument is missing) fails the search with the baseline's error,
// which is checked before round 1 simulates any candidate.
func TestBaselineRunError(t *testing.T) {
	_, err := autotune.Optimize(context.Background(), "gemm-naive",
		workloads.GEMMSource(workloads.GEMMNaive),
		autotune.Options{Defines: workloads.GEMMDefines(workloads.GEMMNaive), Budget: autotune.Budget{Candidates: 4}})
	if err == nil || !strings.HasPrefix(err.Error(), "autotune: baseline run: ") {
		t.Fatalf("err = %v, want the baseline run's error", err)
	}
}

// TestDeterminism runs the same bounded search twice on four workers and
// once on one, and requires byte-identical reports: both tiers fan out by
// index and the de-duplication between them is serial, so neither
// scheduling nor the pool width may show.
func TestDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		res, err := gemm16(context.Background(), 8, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := run(4), run(4), run(1)
	if string(a) != string(b) {
		t.Errorf("two identical searches produced different reports:\n%s\n%s", a, b)
	}
	if string(a) != string(c) {
		t.Errorf("Workers=4 and Workers=1 produced different reports:\n%s\n%s", a, c)
	}
}

// TestDeadlineNeverTruncates sweeps deadlines across the duration of a
// search: whenever the deadline lands, the outcome is either the context
// error or the byte-identical full report — never err == nil with the
// candidates of an interrupted round marked compile-error or sim-error
// and a winner elected from what was left.
func TestDeadlineNeverTruncates(t *testing.T) {
	if _, err := gemm16(context.Background(), 8, 2, 0); err != nil { // warm-up: time the second run
		t.Fatal(err)
	}
	start := time.Now()
	full, err := gemm16(context.Background(), 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	want, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	const points = 8
	cut := 0
	for k := 1; k <= points; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), took*time.Duration(k)/points)
		res, err := gemm16(ctx, 8, 2, 0)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("deadline %d/%d: error %v is not the context's", k, points, err)
			}
			cut++
			continue
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("deadline %d/%d of %v: err == nil with a truncated report: winner %q at %d cycles after %d rounds and %d sims, want %q at %d after %d and %d",
				k, points, took, res.Winner, res.WinnerCycles, res.Rounds, res.SimsRun,
				full.Winner, full.WinnerCycles, full.Rounds, full.SimsRun)
		}
	}
	if cut == 0 {
		t.Errorf("no deadline in the sweep cut the search short (full run took %v)", took)
	}
}

// TestOptimizeCancelMidSearch cancels a search mid-flight, as nymbleopt's
// signal context does on an interrupt: the pi baseline at half a billion
// steps would simulate for minutes, and the search must end promptly
// with the context's error and no report.
func TestOptimizeCancelMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(200*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	res, err := autotune.Optimize(ctx, "pi", workloads.PiSource, autotune.Options{
		Defines:   workloads.PiDefines(),
		Params:    map[string]int64{"steps": 500_000_000, "threads": 8},
		Floats:    map[string]float64{"step": 1.0 / 500_000_000, "final_sum": 0},
		Budget:    autotune.Budget{Candidates: 2},
		MaxRounds: 1,
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("canceled search = %v, %v; want no report and context.Canceled", res, err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("canceled search took %v to return", took)
	}
}

// TestAllocationCeiling pins the cost of the static tier where a test,
// not a benchmark, fails. A two-round DIM=16 search on one worker
// allocates ~63,660 objects (a few either way from run to run, ~65,000
// under the race detector); the ceiling is that plus 10 %. Before a
// candidate paid only for what can change its verdict — a parse per step
// refused or not, a third parse in the build, the full vet with its
// dependence analysis, a fresh scalar type per parse — the same search
// allocated ~91,520.
func TestAllocationCeiling(t *testing.T) {
	const ceiling = 70000
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := gemm16(context.Background(), 8, 2, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("two-round DIM=16 search allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// TestScalarTypesStayShared: minic.TypeInt and TypeFloat hand out one
// shared value each, so a write through any scalar *minic.Type would
// corrupt every later parse. Parse, sema, lowering and a full search over
// every seed unit (at a small size) must leave both values as built.
func TestScalarTypesStayShared(t *testing.T) {
	for _, u := range workloads.Units() {
		if _, err := core.Build(context.Background(), u.Source, core.BuildOptions{Defines: u.Defines}); err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		params, floats := map[string]int64{"DIM": 16}, u.Floats
		if u.Name == "pi" {
			params = map[string]int64{"steps": 2048, "threads": 8}
			floats = map[string]float64{"step": 1.0 / 2048, "final_sum": 0}
		}
		if _, err := autotune.Optimize(context.Background(), u.Name, u.Source, autotune.Options{
			Defines: u.Defines, Params: params, Floats: floats, Budget: autotune.Budget{Candidates: 8},
		}); err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
	}
	if minic.TypeInt() != minic.TypeInt() || minic.TypeFloat() != minic.TypeFloat() {
		t.Fatal("TypeInt or TypeFloat no longer returns a shared value")
	}
	if got := *minic.TypeInt(); !reflect.DeepEqual(got, minic.Type{Basic: minic.Int}) {
		t.Errorf("TypeInt() = %+v after the searches", got)
	}
	if got := *minic.TypeFloat(); !reflect.DeepEqual(got, minic.Type{Basic: minic.Float}) {
		t.Errorf("TypeFloat() = %+v after the searches", got)
	}
}

// TestPiSearch exercises the non-GEMM path: scalar float arguments and
// a kernel where the search finds no proven rewrite. The report must
// still be well-formed with the baseline as winner.
func TestPiSearch(t *testing.T) {
	steps := int64(2048)
	res, err := autotune.Optimize(context.Background(), "pi", workloads.PiSource,
		autotune.Options{
			Defines:   workloads.PiDefines(),
			Params:    map[string]int64{"steps": steps, "threads": 8},
			Floats:    map[string]float64{"step": 1.0 / float64(steps), "final_sum": 0},
			Budget:    autotune.Budget{Candidates: 4},
			MaxRounds: 2,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineCycles <= 0 {
		t.Fatalf("baseline cycles = %d", res.BaselineCycles)
	}
	if res.Winner == "" && res.WinnerCycles != res.BaselineCycles {
		t.Errorf("no winner but WinnerCycles %d != baseline %d", res.WinnerCycles, res.BaselineCycles)
	}
	if res.Winner != "" && res.WinnerCycles >= res.BaselineCycles {
		t.Errorf("winner %q does not improve: %d vs %d", res.Winner, res.WinnerCycles, res.BaselineCycles)
	}
}

// BenchmarkOptimizeGEMM runs the search the layered benchmark's
// optimize_gemm workload times: naive GEMM at DIM=32 with the default
// budget of 32 simulations. Beside time and allocations it reports the
// simulations and rounds one search ran.
//
//	go test -run '^$' -bench OptimizeGEMM -benchmem ./internal/autotune
func BenchmarkOptimizeGEMM(b *testing.B) {
	src := workloads.GEMMSource(workloads.GEMMNaive)
	opts := autotune.Options{
		Defines: workloads.GEMMDefines(workloads.GEMMNaive),
		Params:  map[string]int64{"DIM": 32},
		Budget:  autotune.Budget{Candidates: 32},
	}
	b.ReportAllocs()
	var sims, rounds int
	for i := 0; i < b.N; i++ {
		res, err := autotune.Optimize(context.Background(), "gemm-naive", src, opts)
		if err != nil {
			b.Fatal(err)
		}
		sims += res.SimsRun
		rounds += res.Rounds
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
