package perfbound

import (
	"slices"

	"paravis/internal/interval"
	"paravis/internal/ir"
	"paravis/internal/schedule"
)

// The interval evaluator runs on a form compiled once per Analyze and
// re-run for each of its NT+1 thread contexts; a loop trip allocates
// nothing.

// cop is one IR node compiled for the evaluator. Operands are positions
// in the owning graph's node list (-1: absent, which evaluates unknown),
// scalar parameters are already folded against the workload, and a > b is
// compiled as b < a (>= likewise).
type cop struct {
	op              ir.Op
	a, b, c         int32
	intRes          bool              // the result is an integer: arithmetic keeps its interval
	intArg          bool              // the first operand is an integer: comparisons fold
	inSlice, varies bool              // in the loop's control slice; a carried register reaches the value
	idx             int               // OpLiveIn / OpCarry register
	val             interval.Interval // OpConstInt / OpParam value
}

// induction is the canonical loop the lowering emits for a minic.Counted
// header, found in a control slice: Cond = cmp(carry, bound) and
// CarryUpdate = carry ± step.
type induction struct {
	reg         int   // the carried register Cond tests
	bound, step int32 // positions of Cond's and the update's other operand
	down        bool  // the register is the greater side: the loop counts down
	incl        bool  // the comparison admits equality
	sub         bool  // the update subtracts the step
	// counted: bound and step are loop-invariant and nothing else in the
	// slice varies, so exact operands fold by formula (countedTrips).
	counted bool
}

// cgraph is one graph of the loop tree, compiled, with the per-entry
// results of the latest evalTree and the buffers every evaluation of it
// reuses. Anything the domain cannot track (floats, loads, loop outputs)
// evaluates to unknown, which poisons dependent trip counts instead of
// guessing.
type cgraph struct {
	g     *ir.Graph
	gs    *schedule.GraphSched
	node  *ir.Node // the LoopOp in the parent; nil for the top region
	stats gstats
	ops   []cop // one per g.Nodes, in the same (topological) order
	kids  []*cgraph

	// Control slice of a loop graph: the positions the loop-continue
	// decision transitively depends on — the cond's argument closure plus
	// the carry updates of every carried register the closure reads — in
	// topological order, split into the part no carried register reaches
	// (evaluated once per entry) and the part re-evaluated every trip.
	invariant, variant []int32
	cond               int32
	carries            []int32    // tracked carried registers
	updates            []int32    // position of CarryUpdate[carries[i]]
	ind                *induction // &canon when the slice is the canonical loop, else nil
	canon              induction

	trips interval.Interval // iterations per entry (top region: exactly 1)
	entry interval.Interval // executions per parent iteration (predication: [0,1])

	vals   []interval.Interval // node values of the latest evaluation, by position
	liveIn []interval.Interval
	init   []interval.Interval // carry-init intervals handed down by the parent
	ranges []interval.Interval // per carried register, its value range inside the body
	state  []interval.Interval // carried registers entering the current trip ...
	next   []interval.Interval // ... and the one after: the two swap, so a trip allocates nothing
}

// at returns n's position in the graph, -1 for nil or a foreign node.
func (cg *cgraph) at(n *ir.Node) int32 { return int32(cg.g.Index(n)) }

// val returns n's value in the latest evaluation.
func (cg *cgraph) val(n *ir.Node) interval.Interval { return arg(cg.vals, cg.at(n)) }

// arena holds the evaluator of one Analyze, never shared: one slice per
// type, sized by a walk of the loop tree and carved graph by graph.
type arena struct {
	graphs []cgraph
	kids   []*cgraph
	ops    []cop
	ivs    []interval.Interval
	pos    []int32 // control slices, tracked carried registers, their updates
	arrays []arrayUse
}

// arenaSize counts what the arena of a loop tree holds.
type arenaSize struct{ graphs, ops, ivs, pos, arrays int }

func (n *arenaSize) add(g *ir.Graph, s *schedule.Schedule) {
	n.graphs, n.ops, n.ivs = n.graphs+1, n.ops+len(g.Nodes), n.ivs+len(g.Nodes)+g.NumLiveIn+4*g.NumCarry
	if g.Cond != nil {
		n.pos += 2*len(g.Nodes) + 2*g.NumCarry // either half of the control slice may hold every node
	}
	for _, nd := range g.Nodes {
		if s.Live[nd.ID] && nd.Op.IsMemory() {
			n.arrays++
		}
	}
	for _, ln := range g.Loops {
		n.add(ln.Sub, s)
	}
}

// carve takes the next n elements off *s.
func carve[T any](s *[]T, n int) []T {
	t := (*s)[:n:n]
	*s = (*s)[n:]
	return t
}

// compile builds the evaluator's form of g and of the loops nested in it
// in one arena, and returns the tree in pre-order: g first.
func compile(g *ir.Graph, s *schedule.Schedule, env map[string]int64, beatBytes int) []cgraph {
	var n arenaSize
	n.add(g, s)
	a := arena{make([]cgraph, n.graphs), make([]*cgraph, n.graphs-1), make([]cop, n.ops),
		make([]interval.Interval, n.ivs), make([]int32, n.pos), make([]arrayUse, n.arrays)}
	tree := a.graphs
	a.compile(g, s, env, beatBytes)
	return tree
}

func (a *arena) compile(g *ir.Graph, s *schedule.Schedule, env map[string]int64, beatBytes int) *cgraph {
	gs, nc := s.Graph(g), g.NumCarry
	cg := &carve(&a.graphs, 1)[0]
	*cg = cgraph{
		g: g, gs: gs, stats: statsOf(s, gs, beatBytes, a),
		ops: carve(&a.ops, len(g.Nodes)), vals: carve(&a.ivs, len(g.Nodes)), liveIn: carve(&a.ivs, g.NumLiveIn),
		init: carve(&a.ivs, nc), ranges: carve(&a.ivs, nc), state: carve(&a.ivs, nc), next: carve(&a.ivs, nc),
	}

	for i, n := range g.Nodes {
		args := [3]int32{-1, -1, -1}
		for j, arg := range n.Args {
			if j < len(args) {
				args[j] = cg.at(arg)
			}
		}
		o := cop{op: n.Op, a: args[0], b: args[1], c: args[2], idx: n.Idx, intRes: n.Kind == ir.KindInt}
		o.intArg = len(n.Args) > 0 && n.Args[0] != nil && n.Args[0].Kind == ir.KindInt
		switch n.Op {
		case ir.OpConstInt:
			o.val = interval.Exact(n.IVal)
		case ir.OpParam:
			if v, ok := env[n.Name]; ok {
				o.val = interval.Exact(v)
			}
		case ir.OpGt:
			o.op, o.a, o.b = ir.OpLt, o.b, o.a
		case ir.OpGe:
			o.op, o.a, o.b = ir.OpLe, o.b, o.a
		}
		cg.ops[i] = o
	}
	if g.Cond != nil {
		cg.compileSlice(a)
	}
	cg.kids = carve(&a.kids, len(g.Loops))
	for i, ln := range g.Loops {
		cg.kids[i] = a.compile(ln.Sub, s, env, beatBytes)
		cg.kids[i].node = ln
	}
	return cg
}

// compileSlice finds the loop's control slice and recognises the counted
// form.
func (cg *cgraph) compileSlice(a *arena) {
	g := cg.g
	cg.invariant, cg.variant = carve(&a.pos, len(g.Nodes))[:0], carve(&a.pos, len(g.Nodes))[:0]
	cg.carries, cg.updates = carve(&a.pos, g.NumCarry)[:0], carve(&a.pos, g.NumCarry)[:0]
	cg.visit(g.Cond)
	cg.cond = cg.at(g.Cond)
	for p := range cg.ops {
		o := &cg.ops[p]
		o.varies = o.inSlice && (o.op == ir.OpCarry || (o.a >= 0 && cg.ops[o.a].varies) ||
			(o.b >= 0 && cg.ops[o.b].varies) || (o.c >= 0 && cg.ops[o.c].varies))
		if o.varies {
			cg.variant = append(cg.variant, int32(p))
		} else if o.inSlice {
			cg.invariant = append(cg.invariant, int32(p))
		}
	}
	if cg.cond >= 0 && cg.matchInduction(&cg.canon) {
		cg.ind = &cg.canon
	}
}

// visit adds n, its operands and the updates of the carried registers it
// reads to the control slice.
func (cg *cgraph) visit(n *ir.Node) {
	p := cg.at(n)
	if p < 0 || cg.ops[p].inSlice {
		return
	}
	cg.ops[p].inSlice = true
	for _, a := range n.Args {
		cg.visit(a)
	}
	cg.visit(n.Pred)
	if i := int32(n.Idx); n.Op == ir.OpCarry && n.Idx >= 0 && n.Idx < min(len(cg.g.CarryUpdate), cg.g.NumCarry) && !slices.Contains(cg.carries, i) {
		cg.carries = append(cg.carries, i)
		cg.updates = append(cg.updates, cg.at(cg.g.CarryUpdate[i]))
		cg.visit(cg.g.CarryUpdate[i])
	}
}

// matchInduction reports whether the control slice is the canonical
// loop, filling m in when it is.
func (cg *cgraph) matchInduction(m *induction) bool {
	isCarry := func(p int32) bool { return p >= 0 && cg.ops[p].op == ir.OpCarry }
	// carry < bound, or bound < carry for a loop that counts down.
	cond := &cg.ops[cg.cond]
	*m = induction{bound: cond.b, incl: cond.op == ir.OpLe}
	c := cond.a
	if !isCarry(c) {
		c, m.bound, m.down = cond.b, cond.a, true
	}
	if (cond.op != ir.OpLt && !m.incl) || cond.b < 0 || cond.c >= 0 || !isCarry(c) || !cg.ops[c].intRes {
		return false
	}
	if m.reg = cg.ops[c].idx; m.reg < 0 || m.reg >= len(cg.g.CarryUpdate) || m.reg >= len(cg.init) {
		return false
	}
	// CarryUpdate[reg] = carry + step (or carry - step).
	up := cg.at(cg.g.CarryUpdate[m.reg])
	if up < 0 || cg.ops[up].b < 0 || cg.ops[up].c >= 0 {
		return false
	}
	isReg := func(p int32) bool { return isCarry(p) && cg.ops[p].idx == m.reg }
	switch u := &cg.ops[up]; {
	case u.op == ir.OpAdd && isReg(u.a):
		m.step = u.b
	case u.op == ir.OpAdd && isReg(u.b):
		m.step = u.a
	case u.op == ir.OpSub && isReg(u.a):
		m.step, m.sub = u.b, true
	default:
		return false
	}
	m.counted = len(cg.carries) == 1 && up != cg.cond && cond.intArg && cg.ops[up].intRes &&
		m.bound >= 0 && m.step >= 0 && !cg.ops[m.bound].varies && !cg.ops[m.step].varies
	for _, p := range cg.variant {
		m.counted = m.counted && (p == cg.cond || p == up || isReg(p))
	}
	return true
}

// treeCtx is the thread identity one evalTree runs under: exact for the
// per-thread analysis, [0, NT-1] for the kernel-wide report.
type treeCtx struct {
	tid, nthreads interval.Interval
}

func arg(vals []interval.Interval, p int32) interval.Interval {
	if p < 0 {
		return interval.Top()
	}
	return vals[p]
}

// evalAt abstractly interprets the node at position p; its operands are
// earlier positions, already evaluated.
func (cg *cgraph) evalAt(p int32, tc *treeCtx, carry []interval.Interval) {
	o, vals := &cg.ops[p], cg.vals
	var v interval.Interval
	switch o.op {
	case ir.OpConstInt, ir.OpParam:
		v = o.val
	case ir.OpThreadID:
		v = tc.tid
	case ir.OpNumThreads:
		v = tc.nthreads
	case ir.OpLiveIn:
		if o.idx >= 0 && o.idx < len(cg.liveIn) {
			v = cg.liveIn[o.idx]
		}
	case ir.OpCarry:
		if o.idx >= 0 && o.idx < len(carry) {
			v = carry[o.idx]
		}
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
		if !o.intRes {
			break
		}
		a, b := arg(vals, o.a), arg(vals, o.b)
		switch o.op {
		case ir.OpAdd:
			v = a.Add(b)
		case ir.OpSub:
			v = a.Sub(b)
		case ir.OpMul:
			v = a.Mul(b)
		case ir.OpDiv:
			v = a.Div(b)
		case ir.OpRem:
			v = a.Rem(b)
		}
	case ir.OpLt, ir.OpLe, ir.OpEq, ir.OpNe:
		// Float compares are outside the domain.
		v = interval.Range(0, 1)
		if !o.intArg {
			break
		}
		a, b := arg(vals, o.a), arg(vals, o.b)
		switch o.op {
		case ir.OpLt:
			v = a.Lt(b)
		case ir.OpLe:
			v = a.Le(b)
		case ir.OpEq:
			v = a.Eq(b)
		case ir.OpNe:
			v = not(a.Eq(b))
		}
	case ir.OpAnd:
		a, b := arg(vals, o.a).Truth(), arg(vals, o.b).Truth()
		v = interval.Range(0, 1)
		if a < 0 || b < 0 {
			v = interval.Exact(0)
		} else if a > 0 && b > 0 {
			v = interval.Exact(1)
		}
	case ir.OpOr:
		a, b := arg(vals, o.a).Truth(), arg(vals, o.b).Truth()
		v = interval.Range(0, 1)
		if a > 0 || b > 0 {
			v = interval.Exact(1)
		} else if a < 0 && b < 0 {
			v = interval.Exact(0)
		}
	case ir.OpNot:
		v = not(arg(vals, o.a))
	case ir.OpSelect:
		switch arg(vals, o.a).Truth() {
		case +1:
			v = arg(vals, o.b)
		case -1:
			v = arg(vals, o.c)
		default:
			v = arg(vals, o.b).Join(arg(vals, o.c))
		}
	default:
		// Floats, conversions, vector lane ops, memory, sync, loop
		// outputs: unknown.
	}
	vals[p] = v
}

// not is the interval of the logical negation of a condition.
func not(c interval.Interval) interval.Interval {
	switch c.Truth() {
	case +1:
		return interval.Exact(0)
	case -1:
		return interval.Exact(1)
	}
	return interval.Range(0, 1)
}

// evalAll evaluates every node of the graph under the given carried
// registers. Nodes are in topological order, so one forward pass suffices.
func (cg *cgraph) evalAll(tc *treeCtx, carry []interval.Interval) {
	for p := range cg.ops {
		cg.evalAt(int32(p), tc, carry)
	}
}

// iterBudget caps the concrete trip-count iteration. It comfortably
// covers every seed workload (pi runs 1600 outer iterations per thread)
// while bounding the analysis time of pathological loops.
const iterBudget = 1 << 17

// foldTrips runs the loop's control slice concretely over the interval
// domain: starting from the carry-init intervals it re-evaluates the
// cond and the tracked carry updates until the cond turns definitely
// false. This handles any loop shape the evaluator can fold — including
// the select-chain updates partial unrolling emits — not just affine
// inductions. It fails (ok=false) as soon as the cond becomes
// undecidable or the budget runs out. On success cg.ranges holds, per
// carried register, the union of its values over all executed iterations
// (unknown where untracked). A counted loop whose operands are exact is
// folded by formula instead of being run.
func (cg *cgraph) foldTrips(tc *treeCtx) (interval.Interval, bool) {
	if len(cg.invariant)+len(cg.variant) == 0 {
		return interval.Top(), false
	}
	for _, p := range cg.invariant {
		cg.evalAt(p, tc, cg.init)
	}
	clear(cg.ranges)
	if m := cg.ind; m != nil && m.counted {
		if trips, rng, ok, applies := countedTrips(m.down, m.incl, cg.init[m.reg], cg.vals[m.bound], cg.step()); applies {
			cg.ranges[m.reg] = rng
			return trips, ok
		}
	}
	state, next := cg.state, cg.next
	copy(state, cg.init)
	clear(next)
	for trips := int64(0); trips <= iterBudget; {
		for _, p := range cg.variant {
			cg.evalAt(p, tc, state)
		}
		if t := cg.vals[cg.cond].Truth(); t < 0 {
			return interval.Exact(trips), true
		} else if t == 0 {
			break
		}
		trips++
		for j, i := range cg.carries {
			if trips == 1 {
				cg.ranges[i] = state[i]
			} else {
				cg.ranges[i] = cg.ranges[i].Join(state[i])
			}
			next[i] = arg(cg.vals, cg.updates[j])
		}
		state, next = next, state
		if trips == 1 {
			// Only tracked registers are carried on: the others hold their
			// init on the first trip and are unknown from the second.
			clear(next)
		}
	}
	clear(cg.ranges)
	return interval.Top(), false
}

// countedTrips folds the loop `for (i = in; i < bound; i += step)` (down:
// bound < i; incl: <=) by formula: the trip count and the range of i inside
// the body that running it trip by trip over the interval domain would
// produce. ok=false is that run's failure (the cond undecidable on some
// trip, or the budget spent). applies=false means the formula is not
// provably the iteration — an operand is unknown or inexact, or large
// enough for the formula's own arithmetic to overflow (operands under
// ivCap/4 keep every intermediate below ivCap, where the domain's
// arithmetic is exact too) — and the loop has to be run.
func countedTrips(down, incl bool, in, bound, step interval.Interval) (trips, rng interval.Interval, ok, applies bool) {
	const limit = ivCap >> 2
	small := func(v int64) bool { return -limit < v && v < limit }
	b, bExact := bound.Const()
	s, sExact := step.Const()
	if !in.Bounded() || !bExact || !sExact || !small(in.Lo) || !small(in.Hi) || !small(b) || !small(s) {
		return interval.Top(), interval.Top(), false, false
	}
	// Count up towards an exclusive limit b: a downward loop is mirrored,
	// an inclusive bound moved by one.
	lo, hi := in.Lo, in.Hi
	if down {
		lo, hi, b, s = -hi, -lo, -b, -s
	}
	if incl {
		b++
	}
	switch {
	case lo >= b: // definitely false on entry
		return interval.Exact(0), interval.Top(), true, true
	case hi >= b: // undecidable on entry
		return interval.Top(), interval.Top(), false, true
	case s <= 0: // never leaves: the budget runs out
		return interval.Top(), interval.Top(), false, true
	}
	// The cond holds for certain while hi + t*s < b; on the first trip it
	// does not, it has to fail for certain: lo + t*s >= b.
	t := (b - hi + s - 1) / s
	if t > iterBudget || lo+t*s < b {
		return interval.Top(), interval.Top(), false, true
	}
	hi += (t - 1) * s
	if down {
		lo, hi = -hi, -lo
	}
	return interval.Exact(t), interval.Range(lo, hi), true, true
}

// loopTrips bounds the body iterations of one loop entry. It first
// folds the loop's control slice concretely (precise for every loop
// whose control folds to intervals), then falls back to pattern-matching
// the canonical affine loop the lowerer emits — carry init from the
// LoopOp args, Cond = cmp(carry, bound), CarryUpdate = carry ± step.
// Anything that matches neither stays unknown, which is always sound:
// the cycle bounds simply report "unbounded". cg.ranges receives, per
// carried register, its value range inside the body (unknown where
// untracked).
func (cg *cgraph) loopTrips(tc *treeCtx, hints map[string]interval.Interval) interval.Interval {
	if trips, ok := cg.foldTrips(tc); ok {
		return trips
	}
	if trips := cg.affineTrips(tc); trips.Bounded() {
		return trips
	}
	// Externally proven bracket (abstract interpretation): weakest tier,
	// consulted only when the folding tiers fail. Carry ranges stay
	// unknown — the hint bounds iterations, not register values.
	clear(cg.ranges)
	if h, ok := hints[cg.g.Name]; ok && h.Bounded() {
		return h
	}
	return interval.Top()
}

// affineTrips brackets the canonical loop's trips from loop-invariant
// intervals of its init, bound and step; a trip count without both
// bounds is unknown.
func (cg *cgraph) affineTrips(tc *treeCtx) interval.Interval {
	clear(cg.ranges)
	m := cg.ind
	if m == nil {
		return interval.Top()
	}
	// Loop-invariant view: carries unknown, live-ins from the parent.
	cg.evalAll(tc, cg.ranges)
	bound, step, in := arg(cg.vals, m.bound), cg.step(), cg.init[m.reg]
	// The step's sign must match the direction the loop counts in: a
	// backward (or zero) step may never reach the bound.
	if !bound.Bounded() || !step.Bounded() || !in.Bounded() || m.down != (step.Hi < 0) {
		return interval.Top()
	}
	switch {
	case m.incl && m.down:
		bound = bound.Sub(interval.Exact(1)) // i >= B runs while i > B-1
	case m.incl:
		bound = bound.Add(interval.Exact(1)) // i <= B runs while i < B+1
	}
	trips := interval.Trips(in, bound, step)
	if !trips.Bounded() {
		return interval.Top()
	}
	if m.down {
		cg.ranges[m.reg] = interval.Range(min(in.Hi, bound.Lo+1), in.Hi)
	} else {
		cg.ranges[m.reg] = interval.Range(in.Lo, max(in.Lo, bound.Hi-1))
	}
	return trips
}

// step returns the latest value of what the induction's update adds.
func (cg *cgraph) step() interval.Interval {
	step := arg(cg.vals, cg.ind.step)
	if cg.ind.sub {
		step = step.Neg()
	}
	return step
}

// evalTree evaluates the whole loop nest for one thread context, resolving
// trip counts top-down: a child's carry-init and live-in intervals come
// from the parent's node values.
func (cg *cgraph) evalTree(tc *treeCtx, hints map[string]interval.Interval, entry interval.Interval) {
	cg.entry = entry
	if cg.g.Cond == nil {
		cg.trips = interval.Exact(1)
		clear(cg.ranges)
	} else {
		cg.trips = cg.loopTrips(tc, hints)
	}
	cg.evalAll(tc, cg.ranges)
	for _, kid := range cg.kids {
		clear(kid.liveIn)
		clear(kid.init)
		for i, a := range kid.node.Args {
			if nl := len(kid.liveIn); i < nl {
				kid.liveIn[i] = cg.val(a)
			} else if i-nl < len(kid.init) {
				kid.init[i-nl] = cg.val(a)
			}
		}
		childEntry := interval.Exact(1)
		if pred := kid.node.Pred; pred != nil {
			switch cg.val(pred).Truth() {
			case +1:
			case -1:
				childEntry = interval.Exact(0)
			default:
				childEntry = interval.Range(0, 1)
			}
		}
		kid.evalTree(tc, hints, childEntry)
	}
}
