package transform_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"paravis/internal/core"
	"paravis/internal/depend"
	"paravis/internal/minic"
	"paravis/internal/sim"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

var gemmOpts = transform.Options{
	Defines: workloads.GEMMDefines(workloads.GEMMNaive),
	Params:  map[string]int64{"DIM": 64},
}

// canonGEMM is the canonical printed form of a hand-written seed version:
// the engine's outputs are compared byte-for-byte against these.
func canonGEMM(t *testing.T, v workloads.GEMMVersion) string {
	t.Helper()
	p, err := minic.Parse(workloads.GEMMSource(v), minic.Options{Defines: workloads.GEMMDefines(v)})
	if err != nil {
		t.Fatalf("parse %v: %v", v, err)
	}
	re, err := minic.Parse(minic.Print(p), minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatalf("reparse %v: %v", v, err)
	}
	return minic.Print(re)
}

func findStep(t *testing.T, src, pass string) transform.Step {
	t.Helper()
	steps, err := transform.Targets(src, gemmOpts)
	if err != nil {
		t.Fatalf("targets: %v", err)
	}
	for _, s := range steps {
		if s.Pass == pass {
			return s
		}
	}
	t.Fatalf("no %s target in:\n%s", pass, src)
	return transform.Step{}
}

func mustApply(t *testing.T, src string, step transform.Step) string {
	t.Helper()
	out, err := transform.Apply(src, step, gemmOpts)
	if err != nil {
		t.Fatalf("apply %s on %s: %v", step.Pass, step.Loop, err)
	}
	return out
}

// TestLadderReproduction is the ground-truth test: each pass applied to
// the previous rung reproduces the paper's next hand-written kernel
// byte-for-byte (in canonical printed form).
func TestLadderReproduction(t *testing.T) {
	naive := canonGEMM(t, workloads.GEMMNaive)

	v2 := mustApply(t, naive, findStep(t, naive, transform.PassRedistribute))
	if want := canonGEMM(t, workloads.GEMMNoCritical); v2 != want {
		t.Errorf("redistribute(naive) != no-critical seed:\n--- got ---\n%s\n--- want ---\n%s", v2, want)
	}

	v3 := mustApply(t, v2, findStep(t, v2, transform.PassVectorize))
	if want := canonGEMM(t, workloads.GEMMPartialVec); v3 != want {
		t.Errorf("vectorize(v2) != partial-vec seed:\n--- got ---\n%s\n--- want ---\n%s", v3, want)
	}

	bram := findStep(t, v2, transform.PassBlockBRAM)
	bram.Params = map[string]int64{"bs": 8, "vec": 1}
	v4 := mustApply(t, v2, bram)
	if want := canonGEMM(t, workloads.GEMMBlocked); v4 != want {
		t.Errorf("block-bram(v2) != blocked seed:\n--- got ---\n%s\n--- want ---\n%s", v4, want)
	}

	v5 := mustApply(t, v4, findStep(t, v4, transform.PassDoubleBuffer))
	if want := canonGEMM(t, workloads.GEMMDoubleBuffered); v5 != want {
		t.Errorf("double-buffer(v4) != double-buffered seed:\n--- got ---\n%s\n--- want ---\n%s", v5, want)
	}
}

// ladderOutputs applies the naive → v2 → v4 → v5 sequence and returns
// every emitted source, plus the vectorized v3 side branch.
func ladderOutputs(t *testing.T) map[string]string {
	t.Helper()
	naive := canonGEMM(t, workloads.GEMMNaive)
	v2 := mustApply(t, naive, findStep(t, naive, transform.PassRedistribute))
	v3 := mustApply(t, v2, findStep(t, v2, transform.PassVectorize))
	bram := findStep(t, v2, transform.PassBlockBRAM)
	bram.Params = map[string]int64{"bs": 8, "vec": 1}
	v4 := mustApply(t, v2, bram)
	v5 := mustApply(t, v4, findStep(t, v4, transform.PassDoubleBuffer))
	return map[string]string{"v2": v2, "v3": v3, "v4": v4, "v5": v5}
}

// TestRoundTrip: every pass output re-parses, re-prints byte-identically
// (printer fixpoint) and vets without errors.
func TestRoundTrip(t *testing.T) {
	for name, src := range ladderOutputs(t) {
		t.Run(name, func(t *testing.T) {
			p, err := minic.Parse(src, minic.Options{VectorLanes: 4})
			if err != nil {
				t.Fatalf("output does not re-parse: %v", err)
			}
			if again := minic.Print(p); again != src {
				t.Errorf("output is not a printer fixpoint:\n--- emitted ---\n%s\n--- reprinted ---\n%s", src, again)
			}
			for _, d := range core.Vet(name+".mc", src, core.BuildOptions{VectorLanes: 4}) {
				if d.Severity == staticcheck.SevError {
					t.Errorf("vet error: %s", d)
				}
			}
		})
	}
}

// TestSimEquivalence: each rung computes the same matrix product as the
// reference, at a small DIM so the whole ladder simulates quickly.
func TestSimEquivalence(t *testing.T) {
	const dim = 16
	a, b := workloads.GEMMInputs(dim)
	want := workloads.GEMMRef(a, b, dim)
	srcs := ladderOutputs(t)
	var cycles = map[string]int64{}
	for _, name := range []string{"v2", "v3", "v4", "v5"} {
		p, err := core.Build(context.Background(), srcs[name], core.BuildOptions{VectorLanes: 4})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		cbuf := sim.NewZeroBuffer(dim * dim)
		out, err := p.Run(context.Background(), sim.Args{
			Ints: map[string]int64{"DIM": dim},
			Buffers: map[string]*sim.Buffer{
				"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b), "C": cbuf,
			},
		}, sim.Config{})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		got := cbuf.Floats()
		for i := range want {
			d := float64(got[i] - want[i])
			if d < -0.05 || d > 0.05 {
				t.Fatalf("%s: C[%d] = %g, want %g", name, i, got[i], want[i])
			}
		}
		cycles[name] = out.Result.Cycles
	}
	if cycles["v5"] >= cycles["v2"] {
		t.Errorf("double-buffered (%d cycles) not faster than no-critical (%d)", cycles["v5"], cycles["v2"])
	}
}

// TestUnrollIdentity: re-applying unroll with the factor the loop
// already has is a byte-identical no-op.
func TestUnrollIdentity(t *testing.T) {
	v3 := ladderOutputs(t)["v3"]
	// Find the already-unrolled lane loop in the parsed tree and
	// re-apply unroll with the factor it already carries.
	prog, err := minic.Parse(v3, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var unrolled string
	for _, f := range prog.Funcs {
		var walk func(s minic.Stmt)
		walk = func(s minic.Stmt) {
			switch x := s.(type) {
			case *minic.BlockStmt:
				for _, in := range x.Stmts {
					walk(in)
				}
			case *minic.ForStmt:
				if x.Unroll == 4 {
					unrolled = loopNameOf(x)
				}
				walk(x.Body)
			case *minic.IfStmt:
				walk(x.Then)
				if x.Else != nil {
					walk(x.Else)
				}
			case *minic.CriticalStmt:
				walk(x.Body)
			case *minic.TargetStmt:
				walk(x.Body)
			}
		}
		if f.Body != nil {
			walk(f.Body)
		}
	}
	if unrolled == "" {
		t.Fatalf("no unrolled loop found in v3")
	}
	out, err := transform.Apply(v3, transform.Step{
		Pass: transform.PassUnroll, Loop: unrolled, Params: map[string]int64{"factor": 4},
	}, gemmOpts)
	if err != nil {
		t.Fatalf("identity unroll: %v", err)
	}
	if out != v3 {
		t.Errorf("identity unroll changed the source:\n--- before ---\n%s\n--- after ---\n%s", v3, out)
	}
}

func loopNameOf(st *minic.ForStmt) string {
	return "for@" + itoa(st.Pos.Line) + ":" + itoa(st.Pos.Col)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestTilePass: strip-mining the j loop of the no-critical kernel emits
// a nest that re-parses, vets clean and still computes the right result.
func TestTilePass(t *testing.T) {
	v2 := ladderOutputs(t)["v2"]
	steps, err := transform.Targets(v2, gemmOpts)
	if err != nil {
		t.Fatalf("targets: %v", err)
	}
	var tile *transform.Step
	for i := range steps {
		if steps[i].Pass == transform.PassTile {
			tile = &steps[i]
			break
		}
	}
	if tile == nil {
		t.Fatalf("no tile target on v2")
	}
	tile.Params = map[string]int64{"size": 8}
	out := mustApply(t, v2, *tile)
	p, err := minic.Parse(out, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatalf("tile output does not re-parse: %v", err)
	}
	if again := minic.Print(p); again != out {
		t.Errorf("tile output not canonical")
	}
	const dim = 16
	a, b := workloads.GEMMInputs(dim)
	want := workloads.GEMMRef(a, b, dim)
	prog, err := core.Build(context.Background(), out, core.BuildOptions{VectorLanes: 4})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cbuf := sim.NewZeroBuffer(dim * dim)
	if _, err := prog.Run(context.Background(), sim.Args{
		Ints:    map[string]int64{"DIM": dim},
		Buffers: map[string]*sim.Buffer{"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b), "C": cbuf},
	}, sim.Config{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := cbuf.Floats()
	for i := range want {
		d := float64(got[i] - want[i])
		if d < -0.05 || d > 0.05 {
			t.Fatalf("tiled C[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// lyingReport downgrades every legality verdict in a genuine report, so
// the structural matchers still fit but nothing is proven.
func lyingReport(t *testing.T, src string, verdict depend.Tri) *depend.Report {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep := transform.LegalityReport(fn, map[string]int64{"DIM": 64})
	for _, l := range rep.Loops {
		l.Legal.Unroll = verdict
		l.Legal.UnrollWhy = "doctored"
		l.Legal.Tile = verdict
		l.Legal.TileWhy = "doctored"
		l.Legal.DoubleBuffer = verdict
		l.Legal.DoubleBufferWhy = "doctored"
	}
	return rep
}

// TestLyingLegality is the gate-integrity test: with every verdict
// doctored to unknown or illegal, no pass fires — each returns
// ErrNotProven even though the structural matcher accepts the loop.
func TestLyingLegality(t *testing.T) {
	naive := canonGEMM(t, workloads.GEMMNaive)
	outs := ladderOutputs(t)
	cases := []struct {
		name string
		src  string
		step transform.Step
	}{
		{"redistribute", naive, findStep(t, naive, transform.PassRedistribute)},
		{"vectorize", outs["v2"], findStep(t, outs["v2"], transform.PassVectorize)},
		{"block-bram", outs["v2"], findStep(t, outs["v2"], transform.PassBlockBRAM)},
		{"double-buffer", outs["v4"], findStep(t, outs["v4"], transform.PassDoubleBuffer)},
	}
	// Unroll and tile on the v2 k/j loops.
	unrollStep := findStep(t, outs["v2"], transform.PassUnroll)
	unrollStep.Params = map[string]int64{"factor": 4}
	cases = append(cases, struct {
		name string
		src  string
		step transform.Step
	}{"unroll", outs["v2"], unrollStep})
	tileStep := findStep(t, outs["v2"], transform.PassTile)
	tileStep.Params = map[string]int64{"size": 8}
	cases = append(cases, struct {
		name string
		src  string
		step transform.Step
	}{"tile", outs["v2"], tileStep})

	for _, verdict := range []depend.Tri{depend.Unknown, depend.Illegal} {
		for _, tc := range cases {
			t.Run(tc.name+"/"+verdict.String(), func(t *testing.T) {
				opts := gemmOpts
				opts.Report = lyingReport(t, tc.src, verdict)
				_, err := transform.Apply(tc.src, tc.step, opts)
				if err == nil {
					t.Fatalf("%s fired despite %s legality", tc.step.Pass, verdict)
				}
				if !errors.Is(err, transform.ErrNotProven) {
					t.Fatalf("%s: want ErrNotProven, got %v", tc.step.Pass, err)
				}
				// An analysed base honours the injected report the same way.
				base, err := transform.Analyze(tc.src, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := base.Apply(tc.step); !errors.Is(err, transform.ErrNotProven) {
					t.Fatalf("%s through Base: want ErrNotProven, got %v", tc.step.Pass, err)
				}
			})
		}
	}
}

// TestDoubleBufferFlowDep: a proven loop-carried flow dependence through
// a buffer refuses the rewrite even when the verdicts are proven.
func TestDoubleBufferFlowDep(t *testing.T) {
	v4 := ladderOutputs(t)["v4"]
	step := findStep(t, v4, transform.PassDoubleBuffer)
	prog, err := minic.Parse(v4, minic.Options{VectorLanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep := transform.LegalityReport(fn, map[string]int64{"DIM": 64})
	ld := rep.Loop(step.Loop)
	if ld == nil {
		t.Fatalf("no dependence record for %s", step.Loop)
	}
	ld.Deps = append(ld.Deps, depend.Dep{
		Array: "A_local", Kind: "flow", Carried: true, Proven: true,
	})
	opts := gemmOpts
	opts.Report = rep
	if _, err := transform.Apply(v4, step, opts); !errors.Is(err, transform.ErrNotProven) {
		t.Fatalf("want ErrNotProven on carried flow through buffer, got %v", err)
	}
}

// searchSteps crosses a base's structural targets with the search's
// default parameter grid, the way autotune enumerates a round.
func searchSteps(b *transform.Base) []transform.Step {
	var out []transform.Step
	for _, tg := range b.Targets() {
		switch tg.Pass {
		case transform.PassUnroll:
			for _, f := range []int64{2, 4} {
				out = append(out, transform.Step{Pass: tg.Pass, Loop: tg.Loop, Params: map[string]int64{"factor": f}})
			}
		case transform.PassTile:
			for _, sz := range []int64{4, 8, 16} {
				out = append(out, transform.Step{Pass: tg.Pass, Loop: tg.Loop, Params: map[string]int64{"size": sz}})
			}
		case transform.PassBlockBRAM:
			for _, bs := range []int64{4, 8, 16} {
				for _, vec := range []int64{1, 0} {
					out = append(out, transform.Step{Pass: tg.Pass, Loop: tg.Loop, Params: map[string]int64{"bs": bs, "vec": vec}})
				}
			}
		default:
			out = append(out, tg)
		}
	}
	return out
}

// TestBaseMatchesOneShot: on every round base of the GEMM ladder search,
// every enumerated step applied through one shared Base returns what the
// one-shot Apply returns on the same text, byte for byte, refusal text
// included — with all of a base's steps applied concurrently, as the
// search does, and each applied twice, so a step that saw another's
// rewrite of the tree or its fresh names would show.
func TestBaseMatchesOneShot(t *testing.T) {
	opts := transform.Options{VectorLanes: 4, Params: map[string]int64{"DIM": 16}}
	bases := ladderOutputs(t)
	bases["naive"] = canonGEMM(t, workloads.GEMMNaive)
	for name, src := range bases {
		t.Run(name, func(t *testing.T) {
			base, err := transform.Analyze(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := transform.Targets(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := base.Targets(); !reflect.DeepEqual(got, oneShot) {
				t.Fatalf("Base.Targets = %v, one-shot Targets = %v", got, oneShot)
			}
			steps := searchSteps(base)
			if len(steps) == 0 {
				t.Fatal("no steps enumerated")
			}
			type result struct {
				out string
				err error
			}
			first := make([]result, len(steps))
			again := make([]result, len(steps))
			var wg sync.WaitGroup
			for i := range steps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					first[i].out, _, first[i].err = base.Apply(steps[i])
					again[i].out, _, again[i].err = base.Apply(steps[i])
				}()
			}
			wg.Wait()
			applied := 0
			for i, step := range steps {
				want, wantErr := transform.Apply(src, step, opts)
				for _, got := range []result{first[i], again[i]} {
					if got.out != want || errText(got.err) != errText(wantErr) {
						t.Errorf("%s on %s %v: Base.Apply = (%d bytes, %q), one-shot = (%d bytes, %q)",
							step.Pass, step.Loop, step.Params, len(got.out), errText(got.err), len(want), errText(wantErr))
					}
				}
				if wantErr == nil {
					applied++
				}
			}
			if applied == 0 {
				t.Error("every step was refused: the comparison never saw a rewrite")
			}
			if got := base.Targets(); !reflect.DeepEqual(got, oneShot) {
				t.Errorf("Targets changed after Apply: %v, was %v", got, oneShot)
			}
		})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
