package perfbound

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"paravis/internal/interval"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

// equivUnits are the kernels the whole-tree comparison runs on: the seed
// workloads, every example kernel and the staticcheck fixtures that
// compile (odd loop shapes, predicated loops, unrolled bodies).
func equivUnits(t *testing.T) []workloads.Unit {
	us := workloads.Units()
	params := map[string]int64{"n": 1002, "N": 1002, "DIM": 32}
	for _, pat := range []string{"../../examples/*/*.mc", "../staticcheck/testdata/*.mc", "../absint/testdata/*.mc"} {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			t.Fatalf("glob %s: %v (%d files)", pat, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			us = append(us, workloads.Unit{Name: f, Source: string(src), Params: params})
		}
	}
	return us
}

func schedule1(t testing.TB, u workloads.Unit) (*ir.Kernel, *schedule.Schedule) {
	prog, err := minic.Parse(u.Source, minic.Options{Defines: u.Defines})
	if err != nil {
		return nil, nil
	}
	k, err := lower.Lower(prog)
	if err != nil {
		return nil, nil
	}
	s, err := schedule.Build(k, schedule.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: schedule: %v", u.Name, err)
	}
	return k, s
}

// sameTree compares the compiled tree's latest evaluation with the
// reference's: trips, entry and every node value of every graph.
func sameTree(t *testing.T, where string, cg *cgraph, ref *refGraphEval) {
	t.Helper()
	if cg.g != ref.g || len(cg.kids) != len(ref.kids) {
		t.Fatalf("%s: tree shapes differ at %s", where, ref.g.Name)
	}
	if cg.trips != ref.trips || cg.entry != ref.entry {
		t.Errorf("%s: graph %s: trips %+v entry %+v, reference %+v %+v", where, ref.g.Name, cg.trips, cg.entry, ref.trips, ref.entry)
	}
	for _, n := range ref.g.Nodes {
		if got, want := cg.val(n), ref.vals[n]; got != want {
			t.Errorf("%s: graph %s %v = %+v, reference %+v", where, ref.g.Name, n, got, want)
		}
	}
	for i, kid := range cg.kids {
		sameTree(t, where, kid, ref.kids[i])
	}
}

// TestDenseTreeMatchesReference evaluates whole loop nests under every
// exact thread id and under the interval one, with and without launch
// parameters and hints, on the compiled evaluator and on the map-based
// reference it replaced.
func TestDenseTreeMatchesReference(t *testing.T) {
	compiled := 0
	for _, u := range equivUnits(t) {
		k, s := schedule1(t, u)
		if k == nil {
			continue // fixture that does not compile
		}
		compiled++
		hints := map[string]interval.Interval{}
		for _, g := range k.CollectGraphs() {
			hints[g.Name] = interval.Range(3, 40)
		}
		for _, env := range []map[string]int64{u.Params, nil} {
			for _, h := range []map[string]interval.Interval{nil, hints} {
				top := &compile(k.Top, s, env, 64)[0]
				nt := int64(k.NumThreads)
				tids := []interval.Interval{interval.Range(0, nt-1)}
				for id := int64(0); id < nt; id++ {
					tids = append(tids, interval.Exact(id))
				}
				for _, tid := range tids {
					tc := treeCtx{tid: tid, nthreads: interval.Exact(nt)}
					top.evalTree(&tc, h, interval.Exact(1))
					ref := refEvalTree(k, s, env, h, tid)
					sameTree(t, fmt.Sprintf("%s env=%v hints=%v tid=%+v", u.Name, env != nil, h != nil, tid), top, ref)
				}
			}
		}
	}
	if compiled < 20 {
		t.Errorf("only %d kernels compiled", compiled)
	}
}

// loopShape is one way of writing `for (i = init; i cmp bound; i ±= step)`
// as a loop graph: which comparison, on which side the register sits, and
// how the update is spelled. Bound and step are live-ins, so one compiled
// graph serves every operand triple.
type loopShape struct {
	cmp        ir.Op
	carryRight bool // cond is cmp(bound, carry)
	update     int  // 0: carry+step, 1: step+carry, 2: carry-step
}

func (sh loopShape) String() string {
	return fmt.Sprintf("%v/carryRight=%v/update=%d", sh.cmp, sh.carryRight, sh.update)
}

func (sh loopShape) build() (*ir.Graph, *schedule.Schedule) {
	var nodes ir.Alloc
	b := ir.NewBuilder(0, "for@1:1", &nodes)
	bound, step := b.LiveIn(0, ir.KindInt, 0), b.LiveIn(1, ir.KindInt, 0)
	carry := b.Carry(0, ir.KindInt, 0)
	g := b.Graph()
	if sh.carryRight {
		g.Cond = b.Bin(sh.cmp, bound, carry)
	} else {
		g.Cond = b.Bin(sh.cmp, carry, bound)
	}
	switch sh.update {
	case 0:
		g.CarryUpdate = []*ir.Node{b.Bin(ir.OpAdd, carry, step)}
	case 1:
		g.CarryUpdate = []*ir.Node{b.Bin(ir.OpAdd, step, carry)}
	default:
		g.CarryUpdate = []*ir.Node{b.Bin(ir.OpSub, carry, step)}
	}
	s, err := schedule.Build(&ir.Kernel{Name: "shape", NumThreads: 1, Top: g}, schedule.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return g, s
}

type foldResult struct {
	trips interval.Interval
	rng   interval.Interval
	ok    bool
}

// TestCountedFormulaMatchesIteration is the differential test of the
// closed form: on every loop shape and a grid of operands, folding by
// formula, running the compiled slice trip by trip and running the
// map-based reference must agree on trips, on success and on the
// register's range. The grid covers all four comparisons in both operand
// orders, steps of both signs and zero, exact and interval inits,
// interval bounds and steps (where the formula must stand aside), zero
// trips, trip counts on either side of the budget, operands either side
// of the formula's limit and operands near int64 overflow, where the
// domain drops a bound.
func TestCountedFormulaMatchesIteration(t *testing.T) {
	// Operands are written for the upward loop `i < bound; i += step` and
	// mirrored per shape, so the same cases reach every spelling.
	type operands struct{ in, bound, step interval.Interval }
	exact, span := interval.Exact, interval.Range
	var grid []operands
	inits := []interval.Interval{exact(-5), exact(0), exact(3), span(0, 3), span(2, 9), span(-9, -2), interval.Top()}
	bounds := []interval.Interval{exact(-4), exact(0), exact(7), exact(10), exact(100), span(7, 10)}
	steps := []interval.Interval{exact(1), exact(2), exact(4), exact(7), exact(0), exact(-1), exact(-3), span(1, 2)}
	for _, in := range inits {
		for _, bd := range bounds {
			for _, st := range steps {
				// A loop that is entered and steps away from its bound runs
				// the budget out on every evaluator: those are the few
				// dedicated cases below.
				if st.Hi <= 0 && in.Bounded() && in.Lo <= bd.Hi {
					continue
				}
				grid = append(grid, operands{in, bd, st})
			}
		}
	}
	const lim = ivCap >> 2
	grid = append(grid,
		// Either side of the formula's limit.
		operands{exact(lim - 10), exact(lim - 1), exact(3)},
		operands{exact(lim - 10), exact(lim), exact(3)},
		operands{exact(lim), exact(lim + 9), exact(3)},
		operands{exact(-lim + 1), exact(-lim + 12), exact(5)},
		operands{exact(-lim), exact(-lim + 12), exact(5)},
		operands{exact(5), exact(lim - 3), exact(lim - 1)},
		operands{exact(5), exact(lim - 3), exact(lim)},
		// The register overflows at or below the bound: its interval loses
		// both ends and the cond turns undecidable.
		operands{exact(math.MaxInt64 - 7), exact(math.MaxInt64 - 1), exact(2)},
		operands{exact(math.MaxInt64 - 7), exact(math.MaxInt64), exact(2)},
		operands{exact(0), exact(math.MaxInt64 - 1), exact(math.MaxInt64 >> 3)},
		operands{exact(math.MinInt64 + 7), exact(math.MinInt64 + 12), exact(2)},
	)
	// Cases that take 2^17 trips to run (~50 ms each on the map-based
	// reference): only on the plain spelling of each comparison.
	long := []operands{
		// The budget: 2^17 trips fold, 2^17+1 do not.
		{exact(0), exact(iterBudget), exact(1)},
		{exact(0), exact(iterBudget + 1), exact(1)},
		{span(-3, 0), exact(2 * iterBudget), exact(2)},
		{span(-3, 0), exact(2*iterBudget + 2), exact(2)},
		// Loops that never end.
		{exact(0), exact(10), exact(0)},
		{span(0, 3), exact(10), exact(-lim + 1)},
	}

	formula := 0
	for _, cmp := range []ir.Op{ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe} {
		for _, carryRight := range []bool{false, true} {
			for update := 0; update < 3; update++ {
				sh := loopShape{cmp, carryRight, update}
				g, s := sh.build()
				closed := &compile(g, s, nil, 64)[0]
				dense := &compile(g, s, nil, 64)[0]
				// The loop counts down when the register is on the greater
				// side of the comparison.
				down := (cmp == ir.OpGt || cmp == ir.OpGe) != carryRight
				if m := closed.ind; m == nil || !m.counted || m.down != down || m.incl != (cmp == ir.OpLe || cmp == ir.OpGe) {
					t.Fatalf("%v: counted form not recognised: %+v", sh, m)
				}
				dense.ind.counted = false
				tc := treeCtx{tid: interval.Exact(0), nthreads: interval.Exact(1)}
				run := func(cg *cgraph, o operands) foldResult {
					cg.liveIn[0], cg.liveIn[1], cg.init[0] = o.bound, o.step, o.in
					trips, ok := cg.foldTrips(&tc)
					return foldResult{trips, cg.ranges[0], ok}
				}
				reference := func(o operands) foldResult {
					ctx := &refCtx{tid: tc.tid, nthreads: tc.nthreads, liveIn: []interval.Interval{o.bound, o.step}}
					trips, ranges, ok := refIterateTrips(g, ctx, []interval.Interval{o.in}, nil)
					r := foldResult{trips: trips, ok: ok}
					if ok {
						r.rng = ranges[0]
					}
					return r
				}
				cases := grid
				if !carryRight && update == 0 {
					cases = append(cases[:len(cases):len(cases)], long...)
				}
				for _, o := range cases {
					if down {
						o = operands{o.in.Neg(), o.bound.Neg(), o.step.Neg()}
					}
					added := o.step
					if update == 2 {
						o.step = o.step.Neg()
					}
					if _, _, _, applies := countedTrips(closed.ind.down, closed.ind.incl, o.in, o.bound, added); applies {
						formula++
					}
					want := reference(o)
					if got := run(dense, o); got != want {
						t.Errorf("%v %+v: dense iteration %+v, reference %+v", sh, o, got, want)
					}
					if got := run(closed, o); got != want {
						t.Errorf("%v %+v: closed form %+v, reference %+v", sh, o, got, want)
					}
				}
			}
		}
	}
	if formula < 2000 {
		t.Errorf("the formula applied to only %d cases", formula)
	}
	t.Logf("formula applied to %d cases", formula)
}

// TestCountedFormRecognised pins which control slices the formula is
// allowed on: the three kernels static_sweep sizes by n fold their strided
// loops in O(1), the partially unrolled one (a select chain on the
// induction variable) still iterates.
func TestCountedFormRecognised(t *testing.T) {
	counted := func(src string) map[string]bool {
		k, s := schedule1(t, workloads.Unit{Source: src})
		if k == nil {
			t.Fatal("kernel does not compile")
		}
		got := map[string]bool{}
		var walk func(cg *cgraph)
		walk = func(cg *cgraph) {
			if cg.g.Cond != nil {
				got[cg.g.Name] = cg.ind != nil && cg.ind.counted
			}
			for _, kid := range cg.kids {
				walk(kid)
			}
		}
		walk(&compile(k.Top, s, nil, 64)[0])
		return got
	}
	strided := `
void k(float* A, int N) {
  #pragma omp target parallel map(tofrom:A[0:N]) num_threads(4)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < N; i += nt) {
      A[i] = A[i] + 1.0f;
    }
    #pragma unroll 4
    for (int j = N - 1 - id; j >= 0; j -= nt) {
      A[j] = A[j] * 2.0f;
    }
  }
}
`
	got := counted(strided)
	if want := map[string]bool{"for@7:5": true, "for@11:5": false}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("counted loops = %v, want %v", got, want)
	}
}

// TestAtRejectsForeignNodes: a compiled graph places its own nodes and
// answers -1 for nil and for every node of another graph, so a slice walk
// that strays across a loop boundary stops there.
func TestAtRejectsForeignNodes(t *testing.T) {
	k, s := schedule1(t, workloads.Units()[0])
	top := &compile(k.Top, s, nil, 64)[0]
	if len(top.kids) == 0 {
		t.Fatal("the kernel has no loop")
	}
	kid := top.kids[0]
	for i, n := range kid.g.Nodes {
		if got := kid.at(n); got != int32(i) {
			t.Errorf("at(n%d) = %d in its own graph, want %d", n.ID, got, i)
		}
		if got := top.at(n); got != -1 {
			t.Errorf("at(n%d) = %d in the parent graph, want -1", n.ID, got)
		}
	}
	for _, n := range k.Top.Nodes {
		if got := kid.at(n); got != -1 {
			t.Errorf("at(n%d) = %d in a child graph, want -1", n.ID, got)
		}
	}
	if got := top.at(nil); got != -1 {
		t.Errorf("at(nil) = %d, want -1", got)
	}
}
