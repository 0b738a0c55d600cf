package perfbound_test

// Tests for Config.TripHints: an externally proven trip bracket (from
// internal/absint) bounds loops neither concrete iteration nor the
// affine pattern could fold, without touching reports that never needed
// the fallback.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"paravis/internal/absint"
	"paravis/internal/core"
	"paravis/internal/interval"
	"paravis/internal/minic"
	"paravis/internal/perfbound"
	"paravis/internal/staticcheck"
)

// absintHints parses src and returns the interpreter's trip brackets
// for the function containing the target region.
func absintHints(t *testing.T, src string, env map[string]int64) map[string]interval.Interval {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, fn := range prog.Funcs {
		res := absint.Analyze(fn, absint.Options{Env: env})
		if h := res.TripHints(); h != nil {
			return h
		}
	}
	t.Fatal("no trip hints derived")
	return nil
}

// TestTripHintsBoundUnfoldableLoop pins the fallback chain: with N
// symbolic the strided loop's trips are unknown, and an absint-derived
// hint (computed at N=64: exactly 16 per thread) restores known trips
// and a finite upper bound.
func TestTripHintsBoundUnfoldableLoop(t *testing.T) {
	prog, err := core.Build(context.Background(), tripSrc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	base := perfbound.Analyze(prog.Kernel, prog.Sched, nil, perfbound.DefaultConfig())
	if len(base.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(base.Loops))
	}
	if base.Loops[0].TripsKnown || base.Cycles.UpperKnown {
		t.Fatalf("symbolic run should not fold trips: %+v", base.Loops[0])
	}

	hints := absintHints(t, tripSrc, map[string]int64{"N": 64})
	if h, ok := hints[base.Loops[0].Name]; !ok {
		t.Fatalf("no hint under the loop's join key %q: %v", base.Loops[0].Name, hints)
	} else if h != interval.Exact(16) {
		t.Fatalf("absint bracket = %v, want [16,16]", h)
	}

	cfg := perfbound.DefaultConfig()
	cfg.TripHints = hints
	rep := perfbound.Analyze(prog.Kernel, prog.Sched, nil, cfg)
	l := rep.Loops[0]
	if !l.TripsKnown || l.TripsLo != 16 || l.TripsHi != 16 {
		t.Errorf("hinted trips = [%d,%d] known=%v, want exactly 16", l.TripsLo, l.TripsHi, l.TripsKnown)
	}
	if !rep.Cycles.UpperKnown || rep.Cycles.Lower > rep.Cycles.Upper || rep.Cycles.Lower <= 0 {
		t.Errorf("bad bounds with hints: %+v", rep.Cycles)
	}
}

// TestTripHintsDoNotOverrideFolding checks the hint tier never wins
// over the folding tiers: with N concrete a (deliberately wrong) hint
// must not change the folded trips.
func TestTripHintsDoNotOverrideFolding(t *testing.T) {
	prog, err := core.Build(context.Background(), tripSrc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]int64{"N": 64}
	base := perfbound.Analyze(prog.Kernel, prog.Sched, env, perfbound.DefaultConfig())
	cfg := perfbound.DefaultConfig()
	cfg.TripHints = map[string]interval.Interval{base.Loops[0].Name: interval.Exact(1)}
	rep := perfbound.Analyze(prog.Kernel, prog.Sched, env, cfg)
	if l := rep.Loops[0]; !l.TripsKnown || l.TripsLo != 16 || l.TripsHi != 16 {
		t.Errorf("hint overrode folded trips: [%d,%d] known=%v", l.TripsLo, l.TripsHi, l.TripsKnown)
	}
}

// TestDiagnosticsQuoteTheHintedReport: on the loop only a hint bounds, the
// perf-bound findings derived from the hinted report quote its cycle
// counts. staticcheck.CheckPerf analyses again without hints, which is why
// /v1/perf, nymbleperf and the optimize artifacts no longer call it beside
// a hinted report: here it sees no trips at all and says nothing.
func TestDiagnosticsQuoteTheHintedReport(t *testing.T) {
	// Sixteen threads at 30000 trips each ask more of the DRAM than a
	// thread's own pipeline time, so the roofline finding fires.
	src := strings.Replace(tripSrc, "num_threads(4)", "num_threads(16)", 1)
	prog, err := core.Build(context.Background(), src, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := perfbound.DefaultConfig()
	cfg.TripHints = absintHints(t, src, map[string]int64{"N": 16 * 30000})
	rep := perfbound.Analyze(prog.Kernel, prog.Sched, nil, cfg)
	if l := rep.Loops[0]; !l.TripsKnown || l.TripsLo != 30000 || !rep.Roofline.MemoryBound {
		t.Fatalf("hinted report: trips [%d,%d] known=%v, roofline %+v", l.TripsLo, l.TripsHi, l.TripsKnown, rep.Roofline)
	}
	want := fmt.Sprintf("DRAM needs >= %d cycles vs >= %d compute cycles", rep.Roofline.MemoryCycles, rep.Roofline.ComputeCycles)
	quoted := func(ds []staticcheck.Diagnostic) bool {
		for _, d := range ds {
			if strings.Contains(d.Message, want) {
				return true
			}
		}
		return false
	}
	if ds := staticcheck.PerfDiagnostics("k.mc", rep); !quoted(ds) {
		t.Errorf("diagnostics of the hinted report do not quote it (%s): %v", want, ds)
	}
	if ds := staticcheck.CheckPerf("k.mc", prog.Kernel, prog.Sched, nil); quoted(ds) {
		t.Errorf("the hint-less analysis agrees with the hinted one; the test no longer separates them: %v", ds)
	}
}
