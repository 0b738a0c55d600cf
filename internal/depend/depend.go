// Package depend is a static memory-dependence and transformation-
// legality analysis over MiniC loop nests.
//
// It extracts affine access functions for every array read and write in
// the omp target region (induction variables are normalized to their
// iteration index, so dependence distances come out in iterations), and
// answers, per loop, whether any two accesses to the same array can
// touch the same element in different iterations — a loop-carried
// dependence — and at what constant distance where derivable.
//
// The dependence tests form a small lattice, tried in order of
// precision (see solve.go): exact strong-SIV distance folding, a
// symbolic Banerjee-style interval test over polynomial bounds, and a
// thread-distribution congruence test for omp-parallel loops. Anything
// the tests cannot prove is reported as "may": the analysis is sound,
// never optimistic — it may over-report dependences but never
// under-reports one (the brute-force enumeration harness in
// enum_test.go checks exactly this contract).
//
// Three layers consume the results: staticcheck's loop-carried-dep /
// bank-conflict / transform-legality rules, perfbound's RecMII floor
// (via the IR front end in kernel.go), and the advisor's
// legality-gated remedies.
package depend

import (
	"fmt"
	"sort"

	"paravis/internal/minic"
)

// Tri is a three-valued legality verdict.
type Tri int

// Legality verdicts: a transformation is Proven legal, proven Illegal
// (a dependence that forbids it provably exists), or Unknown (the
// analysis could not decide; consumers must treat this as illegal when
// soundness matters, but should say why).
const (
	Unknown Tri = iota
	Proven
	Illegal
)

func (t Tri) String() string {
	switch t {
	case Proven:
		return "proven"
	case Illegal:
		return "illegal"
	}
	return "unknown"
}

// MarshalText makes Tri render as its name in JSON reports.
func (t Tri) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// Dep is one dependence between two accesses of the same array,
// attributed to the loop that carries it.
type Dep struct {
	Array string `json:"array"`
	// Kind is "flow" (write then read), "anti" (read then write),
	// "output" (write/write) or "flow?" when a write/read pair has an
	// unresolved direction.
	Kind string `json:"kind"`
	// Carried is false for loop-independent (same-iteration) conflicts.
	Carried bool `json:"carried"`
	// Proven marks dependences whose equation was solved exactly;
	// otherwise the dependence merely could not be disproven ("may").
	Proven bool `json:"proven"`
	// Distance is the carrying loop's iteration distance when DistKnown.
	Distance  int64 `json:"distance,omitempty"`
	DistKnown bool  `json:"distance_known"`
	// AllIterations marks a proven dependence whose address does not
	// vary with the carrying loop at all: every iteration pair
	// conflicts, so no single distance exists.
	AllIterations bool `json:"all_iterations,omitempty"`
	// CrossThread marks dependences between iterations executed by
	// different omp threads of a thread-distributed loop.
	CrossThread bool `json:"cross_thread,omitempty"`
	// Line/Col locate the sink access.
	Line int `json:"line"`
	Col  int `json:"col"`
}

// Legality reports which of the paper's GEMM-ladder transformations are
// provably legal for a loop, with the blocking dependence named when
// they are not.
type Legality struct {
	// Unroll (and, equivalently, vectorizing the body's accesses) needs
	// no loop-carried dependence at all.
	Unroll    Tri    `json:"unroll"`
	UnrollWhy string `json:"unroll_why,omitempty"`
	// Tile (strip-mine and reorder within the strip) is reported legal
	// when every carried dependence has a compile-time-constant
	// distance, so a tile size within the minimum distance exists.
	Tile    Tri    `json:"tile"`
	TileWhy string `json:"tile_why,omitempty"`
	// DoubleBuffer (overlap iteration t+1's loads with iteration t's
	// compute) is blocked only by carried flow dependences: anti and
	// output dependences disappear with the renaming the second buffer
	// introduces.
	DoubleBuffer    Tri    `json:"double_buffer"`
	DoubleBufferWhy string `json:"double_buffer_why,omitempty"`
}

// Access is one array access attributed to its innermost enclosing
// loop, with the element stride per iteration of that loop when the
// subscript folds (the bank-conflict rule's input).
type Access struct {
	Array string `json:"array"`
	DRAM  bool   `json:"dram"`
	Write bool   `json:"write"`
	// Width is the number of consecutive scalar elements moved.
	Width int `json:"width"`
	// Stride is the element distance between consecutive iterations of
	// the innermost enclosing loop, valid when StrideKnown.
	Stride      int64 `json:"stride,omitempty"`
	StrideKnown bool  `json:"stride_known"`
	Affine      bool  `json:"affine"`
	Line        int   `json:"line"`
	Col         int   `json:"col"`
}

// LoopDeps is the per-loop analysis result.
type LoopDeps struct {
	// Name is "for@line:col", the join key shared with the lowered IR
	// graph names, perfbound loop reports and simulator stall sites.
	Name  string `json:"loop"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Depth int    `json:"depth"`
	// Unroll is the requested unroll factor (#pragma unroll), 0 if none.
	Unroll int `json:"unroll,omitempty"`
	// ThreadLoop marks loops whose iterations are distributed across
	// omp threads (the induction variable's start depends on
	// omp_get_thread_num()).
	ThreadLoop bool `json:"thread_loop,omitempty"`
	// Affine is false when some array access under the loop had a
	// subscript the analysis could not express affinely; every verdict
	// involving that access is conservatively "may".
	Affine   bool     `json:"affine"`
	Deps     []Dep    `json:"deps,omitempty"`
	Legal    Legality `json:"legality"`
	Accesses []Access `json:"accesses,omitempty"`
}

// Report is the analysis result for one kernel function.
type Report struct {
	Loops []*LoopDeps `json:"loops"`
}

// Loop returns the entry for the named loop ("for@line:col"), or nil.
func (r *Report) Loop(name string) *LoopDeps {
	for _, l := range r.Loops {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// RangeFn is an external range oracle: given an access AST node
// (*minic.Index or *minic.VecLoad) it reports a PROVEN inclusive range
// [lo, hi] of the flattened scalar-word index of the access's first
// element, over every execution of the node, in exactly this package's
// linearization. ok must be false whenever no sound finite range is
// known. internal/absint's Result.IndexRange satisfies this contract.
type RangeFn func(e minic.Expr) (lo, hi int64, ok bool)

// Analyze runs the dependence analysis over fn's omp target region.
// env maps runtime parameters to known values and may be nil (the vet
// path): unknown parameters stay symbolic, and the symbolic tests
// assume only that they are non-negative. A nil target region yields an
// empty report.
func Analyze(fn *minic.FuncDecl, env map[string]int64) *Report {
	return AnalyzeRanges(fn, env, nil)
}

// AnalyzeRanges is Analyze with an optional range oracle: when the
// affine lattice answers "may" for an access pair but the oracle proves
// the two accesses' element footprints disjoint over all executions,
// the pair cannot alias and the dependence is dropped. Only unproven
// ("may") verdicts are ever refined — a proven dependence stands.
func AnalyzeRanges(fn *minic.FuncDecl, env map[string]int64, ranges RangeFn) *Report {
	ts := minic.TargetOf(fn)
	if ts == nil {
		return &Report{}
	}
	nt := ts.NumThreads
	if nt <= 0 {
		nt = 1
	}
	w := newWalker(fn, nt, env)
	w.ranges = ranges
	w.block(ts.Body)
	return w.assemble()
}

// assemble builds the per-loop report from the collected accesses.
func (w *walker) assemble() *Report {
	rep := &Report{}
	for _, l := range w.allLoops {
		ld := &LoopDeps{
			Name:       l.name,
			Line:       l.pos.Line,
			Col:        l.pos.Col,
			Depth:      l.depth,
			Unroll:     l.unroll,
			ThreadLoop: l.threadLoop,
			Affine:     true,
		}
		// Accesses whose innermost loop is l, with their per-iteration
		// stride.
		for _, a := range w.accs {
			if len(a.loops) == 0 || a.loops[len(a.loops)-1] != l {
				continue
			}
			acc := Access{
				Array: a.arr.name, DRAM: a.arr.dram, Write: a.write,
				Width: int(a.width), Affine: a.sub.ok,
				Line: a.pos.Line, Col: a.pos.Col,
			}
			if a.sub.ok {
				if c, ok := a.sub.coefOf(l).constVal(); ok {
					acc.Stride, acc.StrideKnown = c, true
				}
			}
			ld.Accesses = append(ld.Accesses, acc)
		}
		under := w.accessesUnder(l)
		for _, a := range under {
			if !a.sub.ok {
				ld.Affine = false
			}
		}
		ld.Deps = w.loopDeps(l, under)
		ld.Legal = legality(ld)
		rep.Loops = append(rep.Loops, ld)
	}
	sort.SliceStable(rep.Loops, func(i, j int) bool {
		a, b := rep.Loops[i], rep.Loops[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return rep
}

func (w *walker) accessesUnder(l *loopInfo) []*access {
	var out []*access
	for _, a := range w.accs {
		for _, al := range a.loops {
			if al == l {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// loopDeps runs the carried tests for every same-array access pair
// under l, and the cross-thread test when l distributes iterations over
// omp threads.
func (w *walker) loopDeps(l *loopInfo, under []*access) []Dep {
	var deps []Dep
	// Position and the all-iterations flag do not make a dependence new.
	key := func(d Dep) Dep { d.AllIterations, d.Line, d.Col = false, 0, 0; return d }
	addDep := func(d Dep) {
		for _, e := range deps {
			if key(e) == key(d) {
				return
			}
		}
		deps = append(deps, d)
	}
	for i, f := range under {
		for j := i; j < len(under); j++ {
			g := under[j]
			if f.arr != g.arr || (!f.write && !g.write) {
				continue
			}
			if d, ok := classify(f, g, w.refineMay(f, g, w.carriedAt(f, g, l, false)), false); ok {
				addDep(d)
			}
			// Cross-thread: only mapped DRAM arrays are shared between
			// threads (locals are per-thread BRAM), and accesses inside
			// a critical section are mutex-ordered — the race checker
			// owns those.
			if l.threadLoop && f.arr.dram && !(f.critical && g.critical) {
				if d, ok := classify(f, g, w.refineMay(f, g, w.carriedAt(f, g, l, true)), true); ok {
					addDep(d)
				}
			}
		}
	}
	sort.SliceStable(deps, func(i, j int) bool {
		a, b := deps[i], deps[j]
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.CrossThread != b.CrossThread {
			return !a.CrossThread
		}
		return a.Distance < b.Distance
	})
	return deps
}

// refineMay flips a "may" verdict to proven-independent when the range
// oracle shows the two accesses' element footprints never overlap: a
// dependence needs a common element, and each access touches only
// [lo, hi+width-1] over its whole execution. Proven dependences and
// pairs the oracle has no finite ranges for pass through unchanged.
func (w *walker) refineMay(f, g *access, r solveRes) solveRes {
	if r.verdict != vMay || w.ranges == nil || f.node == nil || g.node == nil {
		return r
	}
	flo, fhi, ok := w.ranges(f.node)
	if !ok {
		return r
	}
	glo, ghi, ok := w.ranges(g.node)
	if !ok {
		return r
	}
	fend, okF := addNoOv(fhi, f.width-1)
	gend, okG := addNoOv(ghi, g.width-1)
	if !okF || !okG {
		return r
	}
	if fend < glo || gend < flo {
		return solveRes{verdict: vNone}
	}
	return r
}

// addNoOv adds two int64s, failing on overflow.
func addNoOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// classify turns a solver result for the ordered pair (f, g) into a
// reported dependence.
func classify(f, g *access, r solveRes, crossThread bool) (Dep, bool) {
	if r.verdict == vNone {
		return Dep{}, false
	}
	d := Dep{
		Array:       f.arr.name,
		Carried:     true,
		CrossThread: crossThread,
		// A predicated access may not execute, so its dependence can be
		// disproven (the solver assumed it always runs) but never proven.
		Proven: r.verdict == vProven && !f.pred && !g.pred,
		Line:   g.pos.Line,
		Col:    g.pos.Col,
	}
	switch {
	case f.write && g.write:
		d.Kind = "output"
	case f.write: // write f, read g: g at later iteration => flow
		d.Kind = "flow?"
	default: // read f, write g
		d.Kind = "flow?"
	}
	if r.allIters {
		d.AllIterations = true
	}
	if len(r.dists) > 0 {
		// Smallest-magnitude nonzero distance is the binding one.
		best := r.dists[0]
		for _, x := range r.dists {
			if abs64(x) < abs64(best) {
				best = x
			}
		}
		// X is g's iteration minus f's. For a write f and read g,
		// X > 0 means the read happens X iterations after the write:
		// flow. X < 0 is write-after-read: anti. Mirror for read f.
		sign := best
		if !f.write && g.write {
			sign = -best
		}
		if f.write != g.write {
			if sign > 0 {
				d.Kind = "flow"
			} else {
				d.Kind = "anti"
			}
		}
		if len(r.dists) == 1 {
			d.Distance, d.DistKnown = abs64(best), true
		}
	}
	return d, true
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// legality derives the three transformation verdicts from a loop's
// self-carried dependences (cross-thread dependences are a parallelism
// hazard, reported by the loop-carried-dep rule, not a sequential
// transformation blocker).
func legality(ld *LoopDeps) Legality {
	lg := Legality{Unroll: Proven, Tile: Proven, DoubleBuffer: Proven}
	if !ld.Affine {
		why := "non-affine array subscript in loop body"
		return Legality{Unroll: Unknown, UnrollWhy: why, Tile: Unknown, TileWhy: why, DoubleBuffer: Unknown, DoubleBufferWhy: why}
	}
	worse := func(cur Tri, next Tri) Tri {
		// Illegal (a proven blocker) dominates Unknown dominates Proven.
		if cur == Illegal || next == Illegal {
			return Illegal
		}
		if cur == Unknown || next == Unknown {
			return Unknown
		}
		return Proven
	}
	for _, d := range ld.Deps {
		if !d.Carried || d.CrossThread {
			continue
		}
		blocker := describeDep(d)
		// Unroll: any carried dependence blocks; proven ones prove
		// illegality.
		v := Unknown
		if d.Proven {
			v = Illegal
		}
		if nv := worse(lg.Unroll, v); nv != lg.Unroll {
			lg.Unroll, lg.UnrollWhy = nv, blocker
		}
		// Tile: a carried dependence with a known constant distance
		// still admits tiling; unknown or all-iteration distances block.
		if !d.DistKnown {
			tv := Unknown
			if d.Proven && d.AllIterations {
				tv = Illegal
			}
			if nv := worse(lg.Tile, tv); nv != lg.Tile {
				lg.Tile, lg.TileWhy = nv, blocker
			}
		}
		// Double buffering: only flow dependences block.
		if d.Kind == "flow" || d.Kind == "flow?" {
			dv := Unknown
			if d.Proven && d.Kind == "flow" {
				dv = Illegal
			}
			if nv := worse(lg.DoubleBuffer, dv); nv != lg.DoubleBuffer {
				lg.DoubleBuffer, lg.DoubleBufferWhy = nv, blocker
			}
		}
	}
	return lg
}

// Describe renders the dependence for diagnostics and legality
// blockers, e.g. "loop-carried flow dependence on A (distance 1)".
func (d Dep) Describe() string { return describeDep(d) }

// describeDep renders a dependence for legality blockers and
// diagnostics.
func describeDep(d Dep) string {
	kind := d.Kind
	if kind == "flow?" {
		kind = "flow-or-anti"
	}
	var detail string
	switch {
	case d.DistKnown:
		detail = fmt.Sprintf("distance %d", d.Distance)
	case d.AllIterations:
		detail = "all iterations"
	default:
		detail = "unknown distance"
	}
	if !d.Proven {
		return fmt.Sprintf("possible loop-carried %s dependence on %s (%s)", kind, d.Array, detail)
	}
	return fmt.Sprintf("loop-carried %s dependence on %s (%s)", kind, d.Array, detail)
}
