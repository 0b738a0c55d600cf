package perfbound

// The map-based interval evaluator perfbound ran on until the dense,
// compiled one of eval.go replaced it: one map of node values per
// evaluation, the control slice recomputed per loop entry, every loop run
// trip by trip, and its own closed form for the affine fallback. It is
// kept verbatim (identifiers prefixed ref; the values now from the shared
// interval lattice) as the oracle the new evaluator is checked against in
// equiv_test.go.

import (
	"paravis/internal/interval"
	"paravis/internal/ir"
	"paravis/internal/schedule"
)

// refCtx is the abstract evaluation context of one graph: the thread identity
// (exact for per-thread analysis, [0, NT-1] for the kernel-wide report) and
// the live-in / carried-register intervals handed down by the parent.
type refCtx struct {
	tid      interval.Interval
	nthreads interval.Interval
	liveIn   []interval.Interval
	carry    []interval.Interval
}

// refEvalNodes abstractly interprets a graph over the interval domain. Nodes
// are in topological order, so one forward pass suffices. Anything the
// domain cannot track (floats, loads, loop outputs) evaluates to unknown,
// which poisons dependent trip counts instead of guessing.
func refEvalNodes(g *ir.Graph, ctx *refCtx, env map[string]int64) map[*ir.Node]interval.Interval {
	return refEvalList(g.Nodes, ctx, env)
}

// refEvalList is refEvalNodes over an arbitrary topologically ordered subset.
func refEvalList(nodes []*ir.Node, ctx *refCtx, env map[string]int64) map[*ir.Node]interval.Interval {
	vals := make(map[*ir.Node]interval.Interval, len(nodes))
	get := func(n *ir.Node) interval.Interval {
		if n == nil {
			return interval.Top()
		}
		return vals[n]
	}
	for _, n := range nodes {
		var v interval.Interval
		switch n.Op {
		case ir.OpConstInt:
			v = interval.Exact(n.IVal)
		case ir.OpParam:
			if val, ok := env[n.Name]; ok {
				v = interval.Exact(val)
			}
		case ir.OpThreadID:
			v = ctx.tid
		case ir.OpNumThreads:
			v = ctx.nthreads
		case ir.OpLiveIn:
			if n.Idx >= 0 && n.Idx < len(ctx.liveIn) {
				v = ctx.liveIn[n.Idx]
			}
		case ir.OpCarry:
			if n.Idx >= 0 && n.Idx < len(ctx.carry) {
				v = ctx.carry[n.Idx]
			}
		case ir.OpAdd:
			v = refIntOnly(n, get(n.Args[0]).Add(get(n.Args[1])))
		case ir.OpSub:
			v = refIntOnly(n, get(n.Args[0]).Sub(get(n.Args[1])))
		case ir.OpMul:
			v = refIntOnly(n, get(n.Args[0]).Mul(get(n.Args[1])))
		case ir.OpDiv:
			v = refIntOnly(n, get(n.Args[0]).Div(get(n.Args[1])))
		case ir.OpRem:
			v = refIntOnly(n, get(n.Args[0]).Rem(get(n.Args[1])))
		case ir.OpLt:
			v = refIntCmp(n, get(n.Args[0]).Lt(get(n.Args[1])))
		case ir.OpLe:
			v = refIntCmp(n, get(n.Args[0]).Le(get(n.Args[1])))
		case ir.OpGt:
			v = refIntCmp(n, get(n.Args[1]).Lt(get(n.Args[0])))
		case ir.OpGe:
			v = refIntCmp(n, get(n.Args[1]).Le(get(n.Args[0])))
		case ir.OpEq:
			v = refIntCmp(n, get(n.Args[0]).Eq(get(n.Args[1])))
		case ir.OpNe:
			eq := refIntCmp(n, get(n.Args[0]).Eq(get(n.Args[1])))
			switch {
			case eq.Truth() > 0:
				v = interval.Exact(0)
			case eq.Truth() < 0:
				v = interval.Exact(1)
			default:
				v = interval.Range(0, 1)
			}
		case ir.OpAnd, ir.OpOr, ir.OpNot:
			v = interval.Range(0, 1)
			a, b := get(n.Args[0]), interval.Interval{}
			if len(n.Args) > 1 {
				b = get(n.Args[1])
			}
			switch n.Op {
			case ir.OpAnd:
				if a.Truth() < 0 || b.Truth() < 0 {
					v = interval.Exact(0)
				} else if a.Truth() > 0 && b.Truth() > 0 {
					v = interval.Exact(1)
				}
			case ir.OpOr:
				if a.Truth() > 0 || b.Truth() > 0 {
					v = interval.Exact(1)
				} else if a.Truth() < 0 && b.Truth() < 0 {
					v = interval.Exact(0)
				}
			case ir.OpNot:
				if a.Truth() > 0 {
					v = interval.Exact(0)
				} else if a.Truth() < 0 {
					v = interval.Exact(1)
				}
			}
		case ir.OpSelect:
			c := get(n.Args[0])
			switch {
			case c.Truth() > 0:
				v = get(n.Args[1])
			case c.Truth() < 0:
				v = get(n.Args[2])
			default:
				v = get(n.Args[1]).Join(get(n.Args[2]))
			}
		default:
			// Floats, conversions, vector lane ops, memory, sync, loop
			// outputs: unknown.
		}
		vals[n] = v
	}
	return vals
}

// refIntOnly keeps an interval only for integer-kinded results.
func refIntOnly(n *ir.Node, v interval.Interval) interval.Interval {
	if n.Kind != ir.KindInt {
		return interval.Top()
	}
	return v
}

// refIntCmp keeps a comparison interval only when both operands are integers
// (float compares are outside the domain).
func refIntCmp(n *ir.Node, v interval.Interval) interval.Interval {
	if n.Args[0].Kind != ir.KindInt {
		return interval.Range(0, 1)
	}
	return v
}

// refCondClosure returns, in topological order, the nodes the loop-continue
// decision transitively depends on — the cond's argument closure plus
// the carry updates of every carried register the closure reads — and
// the indices of those tracked carries.
func refCondClosure(g *ir.Graph) ([]*ir.Node, []int) {
	need := make(map[*ir.Node]bool)
	var carries []int
	carrySeen := make(map[int]bool)
	var visit func(n *ir.Node)
	visit = func(n *ir.Node) {
		if n == nil || need[n] {
			return
		}
		need[n] = true
		for _, a := range n.Args {
			visit(a)
		}
		if n.Pred != nil {
			visit(n.Pred)
		}
		if n.Op == ir.OpCarry && !carrySeen[n.Idx] {
			carrySeen[n.Idx] = true
			if n.Idx >= 0 && n.Idx < len(g.CarryUpdate) {
				carries = append(carries, n.Idx)
				visit(g.CarryUpdate[n.Idx])
			}
		}
	}
	visit(g.Cond)
	var order []*ir.Node
	for _, n := range g.Nodes {
		if need[n] {
			order = append(order, n)
		}
	}
	return order, carries
}

// refIterateTrips runs the loop's control slice concretely over the
// interval domain: starting from the carry-init intervals it re-evaluates
// the cond and the tracked carry updates until the cond turns definitely
// false. This handles any loop shape the evaluator can fold — including
// the select-chain updates partial unrolling emits — not just affine
// inductions. It fails (ok=false) as soon as the cond becomes
// undecidable or the budget runs out. The returned ranges are, per
// carried register, the union of its values over all executed
// iterations (the register's range inside the body).
func refIterateTrips(g *ir.Graph, ctx *refCtx, init []interval.Interval, env map[string]int64) (interval.Interval, []interval.Interval, bool) {
	nodes, carries := refCondClosure(g)
	if len(nodes) == 0 {
		return interval.Top(), nil, false
	}
	state := make([]interval.Interval, g.NumCarry)
	copy(state, init)
	ranges := make([]interval.Interval, g.NumCarry)
	hasRange := make([]bool, g.NumCarry)
	ictx := *ctx
	trips := int64(0)
	for trips <= iterBudget {
		ictx.carry = state
		vals := refEvalList(nodes, &ictx, env)
		c := vals[g.Cond]
		if c.Truth() < 0 {
			return interval.Exact(trips), ranges, true
		}
		if c.Truth() == 0 {
			return interval.Top(), nil, false
		}
		trips++
		next := make([]interval.Interval, g.NumCarry)
		for _, i := range carries {
			if hasRange[i] {
				ranges[i] = ranges[i].Join(state[i])
			} else {
				ranges[i], hasRange[i] = state[i], true
			}
			next[i] = vals[g.CarryUpdate[i]]
		}
		state = next
	}
	return interval.Top(), nil, false
}

// refLoopTrips bounds the body iterations of one loop entry. It first
// iterates the loop's control slice concretely (precise for every loop
// whose control folds to intervals), then falls back to pattern-matching
// the canonical affine loop the lowerer emits — carry init from the
// LoopOp args, Cond = cmp(carry, bound), CarryUpdate = carry ± step.
// Anything that matches neither stays unknown, which is always sound:
// the cycle bounds simply report "unbounded". The second result gives,
// per carried register, its value range inside the body (unknown where
// untracked).
func refLoopTrips(g *ir.Graph, ctx *refCtx, init []interval.Interval, env map[string]int64, hints map[string]interval.Interval) (interval.Interval, []interval.Interval) {
	if trips, ranges, ok := refIterateTrips(g, ctx, init, env); ok {
		return trips, ranges
	}
	if trips, ranges := refAffineTrips(g, ctx, init, env); trips.Bounded() {
		return trips, ranges
	}
	// Externally proven bracket (abstract interpretation): weakest tier,
	// consulted only when the folding tiers fail. Carry ranges stay
	// unknown — the hint bounds iterations, not register values.
	if h, ok := hints[g.Name]; ok && h.Bounded() {
		return h, make([]interval.Interval, g.NumCarry)
	}
	return interval.Top(), make([]interval.Interval, g.NumCarry)
}

func refAffineTrips(g *ir.Graph, ctx *refCtx, init []interval.Interval, env map[string]int64) (interval.Interval, []interval.Interval) {
	none := interval.Top()
	noRanges := make([]interval.Interval, g.NumCarry)
	cond := g.Cond
	if cond == nil || len(cond.Args) != 2 {
		return none, noRanges
	}
	// Loop-invariant view: carries unknown, live-ins from the parent.
	inv := *ctx
	inv.carry = make([]interval.Interval, g.NumCarry)
	vals := refEvalNodes(g, &inv, env)

	// cmp(carry, bound) possibly with swapped operands.
	op := cond.Op
	carryArg, boundArg := cond.Args[0], cond.Args[1]
	if carryArg.Op != ir.OpCarry {
		carryArg, boundArg = boundArg, carryArg
		switch op {
		case ir.OpLt:
			op = ir.OpGt
		case ir.OpLe:
			op = ir.OpGe
		case ir.OpGt:
			op = ir.OpLt
		case ir.OpGe:
			op = ir.OpLe
		}
	}
	if carryArg.Op != ir.OpCarry || carryArg.Kind != ir.KindInt {
		return none, noRanges
	}
	idx := carryArg.Idx
	if idx < 0 || idx >= len(g.CarryUpdate) || idx >= len(init) {
		return none, noRanges
	}
	bound := vals[boundArg]
	if !bound.Bounded() {
		return none, noRanges
	}

	// CarryUpdate[idx] = carry + step (or carry - step).
	upd := g.CarryUpdate[idx]
	if upd == nil || len(upd.Args) != 2 {
		return none, noRanges
	}
	var step interval.Interval
	isCarry := func(n *ir.Node) bool { return n.Op == ir.OpCarry && n.Idx == idx }
	switch {
	case upd.Op == ir.OpAdd && isCarry(upd.Args[0]):
		step = vals[upd.Args[1]]
	case upd.Op == ir.OpAdd && isCarry(upd.Args[1]):
		step = vals[upd.Args[0]]
	case upd.Op == ir.OpSub && isCarry(upd.Args[0]):
		step = interval.Exact(0).Sub(vals[upd.Args[1]])
	default:
		return none, noRanges
	}
	if !step.Bounded() {
		return none, noRanges
	}
	in := init[idx]
	if !in.Bounded() {
		return none, noRanges
	}

	switch op {
	case ir.OpLt, ir.OpLe:
		if step.Lo <= 0 {
			return none, noRanges // zero or backward step under an upper bound: possibly infinite
		}
		b := bound
		if op == ir.OpLe {
			b = b.Add(interval.Exact(1)) // i <= B runs while i < B+1
		}
		lo := ceilDiv(b.Lo-in.Hi, step.Hi)
		hi := ceilDiv(b.Hi-in.Lo, step.Lo)
		rngHi := max(in.Lo, b.Hi-1)
		noRanges[idx] = interval.Range(in.Lo, rngHi)
		return interval.Range(lo, hi), noRanges
	case ir.OpGt, ir.OpGe:
		if step.Hi >= 0 {
			return none, noRanges
		}
		b := bound
		if op == ir.OpGe {
			b = b.Sub(interval.Exact(1)) // i >= B runs while i > B-1
		}
		lo := ceilDiv(in.Lo-b.Hi, -step.Lo)
		hi := ceilDiv(in.Hi-b.Lo, -step.Hi)
		rngLo := min(in.Hi, b.Lo+1)
		noRanges[idx] = interval.Range(rngLo, in.Hi)
		return interval.Range(lo, hi), noRanges
	}
	return none, noRanges
}

// refGraphEval is one graph of the loop tree evaluated under a fixed (or
// interval) thread identity.
type refGraphEval struct {
	g     *ir.Graph
	gs    *schedule.GraphSched
	node  *ir.Node          // the LoopOp in the parent; nil for the top region
	trips interval.Interval // iterations per entry (top region: exactly 1)
	entry interval.Interval // executions per parent iteration (predication: [0,1])
	vals  map[*ir.Node]interval.Interval
	kids  []*refGraphEval
}

// refEvalTree evaluates the whole loop nest for one thread context, resolving
// trip counts top-down: a child's carry-init and live-in intervals come
// from the parent's node values.
func refEvalTree(k *ir.Kernel, s *schedule.Schedule, env map[string]int64, hints map[string]interval.Interval, tid interval.Interval) *refGraphEval {
	nt := interval.Exact(int64(k.NumThreads))
	var build func(g *ir.Graph, node *ir.Node, ctx refCtx, init []interval.Interval, entry interval.Interval) *refGraphEval
	build = func(g *ir.Graph, node *ir.Node, ctx refCtx, init []interval.Interval, entry interval.Interval) *refGraphEval {
		ge := &refGraphEval{g: g, gs: s.ByGraph[g], node: node, entry: entry}
		if g.Cond == nil {
			ge.trips = interval.Exact(1)
			ctx.carry = make([]interval.Interval, g.NumCarry)
			ge.vals = refEvalNodes(g, &ctx, env)
		} else {
			trips, ranges := refLoopTrips(g, &ctx, init, env, hints)
			ge.trips = trips
			ctx.carry = make([]interval.Interval, g.NumCarry)
			for i := 0; i < g.NumCarry && i < len(ranges); i++ {
				ctx.carry[i] = ranges[i]
			}
			ge.vals = refEvalNodes(g, &ctx, env)
		}
		for _, ln := range g.Loops {
			sub := ln.Sub
			childCtx := refCtx{tid: ctx.tid, nthreads: ctx.nthreads}
			childCtx.liveIn = make([]interval.Interval, sub.NumLiveIn)
			childInit := make([]interval.Interval, sub.NumCarry)
			for i := 0; i < sub.NumLiveIn && i < len(ln.Args); i++ {
				childCtx.liveIn[i] = ge.vals[ln.Args[i]]
			}
			for i := 0; i < sub.NumCarry && sub.NumLiveIn+i < len(ln.Args); i++ {
				childInit[i] = ge.vals[ln.Args[sub.NumLiveIn+i]]
			}
			childEntry := interval.Exact(1)
			if ln.Pred != nil {
				pv := ge.vals[ln.Pred]
				switch {
				case pv.Truth() > 0:
					childEntry = interval.Exact(1)
				case pv.Truth() < 0:
					childEntry = interval.Exact(0)
				default:
					childEntry = interval.Range(0, 1)
				}
			}
			ge.kids = append(ge.kids, build(sub, ln, childCtx, childInit, childEntry))
		}
		return ge
	}
	top := k.Top
	ctx := refCtx{tid: tid, nthreads: nt}
	return build(top, nil, ctx, nil, interval.Exact(1))
}

// ceilDiv is ceiling division for positive divisors.
func ceilDiv(n, d int64) int64 {
	if d <= 0 {
		return 0
	}
	if n <= 0 {
		return 0
	}
	return (n + d - 1) / d
}
