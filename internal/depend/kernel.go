package depend

// IR front end. perfbound brackets per-loop initiation intervals from
// the lowered dataflow graphs, so the RecMII floor has to be derived on
// the same representation. AnalyzeKernel finds, per graph (= loop
// body), the two recurrence shapes that bound pipelining from below:
//
//   - memory recurrences: a store and a load on the same array whose
//     element indices are affine in the iteration counter with equal
//     slopes and an intercept difference that is an exact positive
//     multiple d of the slope. Iteration t+d then reads the element
//     iteration t writes, for every runtime valuation — a proven
//     loop-carried flow dependence of constant distance d.
//   - scalar recurrences: a carried register whose next-iteration value
//     transitively depends on its own current value (accumulators,
//     reductions). The cycle's latency is the minimum spacing between
//     successive iterations' updates.
//
// Everything outside these shapes is simply not reported: the consumer
// uses the result only to RAISE a lower bound, so missing a recurrence
// is sound and inventing one is not. Predicated loads and stores are
// excluded from memory recurrences for the same reason — a predicated
// op may not execute, breaking the chain in some iterations.

import (
	"slices"

	"paravis/internal/ir"
	"paravis/internal/slab"
)

// MemRec is a proven loop-carried flow dependence inside one graph.
type MemRec struct {
	Array    string
	Local    bool // BRAM (SpaceLocal) rather than board DRAM
	Distance int64
	Store    *ir.Node
	Load     *ir.Node
}

// ScalarRec is a carried register on a dependence cycle with itself.
type ScalarRec struct {
	Carry int
	// Lat is the latency sum along the longest cycle path (the carry's
	// value at iteration t+1 is ready no earlier than Lat cycles after
	// its value at iteration t), under the latency function passed to
	// AnalyzeKernel.
	Lat int
	// Path lists the cycle's nodes from the first user of the carry to
	// the update node, along the longest-latency path.
	Path []*ir.Node
}

// GraphDeps is the per-graph recurrence report.
type GraphDeps struct {
	Mem    []MemRec
	Scalar []ScalarRec
}

// KernelDeps maps each graph of a kernel to its recurrences.
type KernelDeps struct {
	ByGraph map[*ir.Graph]*GraphDeps
}

// AnalyzeKernel analyzes every graph of k. env supplies known scalar
// parameter values (may be nil); lat gives per-node operation latency in
// cycles for scalar-recurrence cycle sums (nil treats every node as
// latency 0, which still identifies the cycles).
func AnalyzeKernel(k *ir.Kernel, env map[string]int64, lat func(*ir.Node) int) *KernelDeps {
	if lat == nil {
		lat = func(*ir.Node) int { return 0 }
	}
	graphs := k.CollectGraphs()
	kd := &KernelDeps{ByGraph: make(map[*ir.Graph]*GraphDeps, len(graphs))}
	ev := newGEval(k, env)
	gds := make([]GraphDeps, len(graphs))
	for i, g := range graphs {
		ev.analyzeGraph(g, &gds[i], lat)
		kd.ByGraph[g] = &gds[i]
	}
	return kd
}

// graphIter is the one loop slot of the IR pass's affine forms: a
// graph's iteration counter t, so a form is base + coef[graphIter]*t
// with polynomial coefficients over the runtime parameters (and opaque
// per-graph symbols for live-ins and carry seeds, which cancel in
// same-graph differences).
const graphIter = 0

// gEval evaluates one kernel's graphs to affine forms. Its per-node
// facts are one table indexed by Node.ID, which a validated kernel
// numbers densely and uniquely; a graph's arguments and carry updates
// are its own nodes, so each graph reads and writes only its own
// entries.
type gEval struct {
	al    algebra
	k     *ir.Kernel
	env   map[string]int64
	nodes []nodeFact
	vals  []aff  // the current graph's forms, in evaluation order
	steps []poly // per carry of the current graph: its induction step, nil if none

	loads, stores, path []*ir.Node
	scalar              []ScalarRec
	scalars             slab.Lists[ScalarRec]
	paths               slab.Lists[*ir.Node]
}

// nodeFact is what the IR pass knows of one node: 1 + the index of its
// form in vals (0 until evaluated in this graph), whether it
// transitively reads a carried register, and carryCycle's longest-path
// state, reset per carry (the longest latency from the carry's read, -1
// when none, and the argument it came through).
type nodeFact struct {
	val   int32
	reads bool
	dist  int
	from  *ir.Node
}

func newGEval(k *ir.Kernel, env map[string]int64) *gEval {
	n := 0
	for _, g := range k.CollectGraphs() {
		for _, nd := range g.Nodes {
			n = max(n, nd.ID+1)
		}
	}
	ev := &gEval{k: k, env: env, nodes: make([]nodeFact, n), vals: make([]aff, 0, 32)}
	ev.al.init()
	return ev
}

func (ev *gEval) analyzeGraph(g *ir.Graph, gd *GraphDeps, lat func(*ir.Node) int) {
	for _, n := range g.Nodes {
		ev.nodes[n.ID].val = 0
	}
	ev.vals = ev.vals[:0]
	ev.findInductions(g)

	// Memory recurrences: unpredicated store -> unpredicated load, same
	// array, pairwise.
	loads, stores := ev.loads[:0], ev.stores[:0]
	for _, n := range g.Nodes {
		if n.Pred != nil {
			continue
		}
		switch n.Op {
		case ir.OpLoad:
			loads = append(loads, n)
		case ir.OpStore:
			stores = append(stores, n)
		}
	}
	ev.loads, ev.stores = loads, stores
	for _, st := range stores {
		sa := ev.eval(st.Args[0])
		slope := sa.coefOf(graphIter)
		if !sa.ok || slope.isZero() {
			continue
		}
		for _, ld := range loads {
			if !sameArray(st.Arr, ld.Arr) {
				continue
			}
			la := ev.eval(ld.Args[0])
			if !la.ok || !la.coefOf(graphIter).equal(slope) {
				continue
			}
			// store(t) and load(t+d) touch the same element when
			// base_S - base_L == d * slope exactly.
			d, ok := ev.al.sub(sa.base, la.base).constMultipleOf(slope)
			if !ok || d < 1 {
				continue
			}
			gd.Mem = append(gd.Mem, MemRec{
				Array:    st.Arr.Name,
				Local:    st.Arr.Space == ir.SpaceLocal,
				Distance: d,
				Store:    st,
				Load:     ld,
			})
		}
	}

	// Scalar recurrences: longest-latency path from each carry to its
	// own update through nodes that transitively use it.
	scalar := ev.scalar[:0]
	for i, upd := range g.CarryUpdate {
		if upd == nil {
			continue
		}
		if rec, ok := ev.carryCycle(g, i, upd, lat); ok {
			scalar = append(scalar, rec)
		}
	}
	ev.scalar, gd.Scalar = scalar, ev.scalars.Carve(scalar)
}

func sameArray(a, b *ir.ArrayRef) bool {
	if a == nil || b == nil {
		return false
	}
	return a.Space == b.Space && a.Name == b.Name && a.LocalID == b.LocalID
}

// findInductions recognizes carries updated as carry +/- invariant. The
// step operand must not itself read any carried register: the increment
// has to be the same every iteration for the slope to be linear.
func (ev *gEval) findInductions(g *ir.Graph) {
	for _, n := range g.Nodes { // topological order
		r := n.Op == ir.OpCarry
		for _, a := range n.Args {
			r = r || ev.nodes[a.ID].reads
		}
		ev.nodes[n.ID].reads = r
	}
	ev.steps = slices.Grow(ev.steps[:0], len(g.CarryUpdate))[:len(g.CarryUpdate)]
	clear(ev.steps)
	for i, upd := range g.CarryUpdate {
		if upd == nil || (upd.Op != ir.OpAdd && upd.Op != ir.OpSub) || len(upd.Args) != 2 {
			continue
		}
		var stepArg *ir.Node
		neg := false
		switch {
		case upd.Args[0].Op == ir.OpCarry && upd.Args[0].Idx == i:
			stepArg = upd.Args[1]
			neg = upd.Op == ir.OpSub
		case upd.Args[1].Op == ir.OpCarry && upd.Args[1].Idx == i && upd.Op == ir.OpAdd:
			stepArg = upd.Args[0]
		default:
			continue
		}
		if stepArg == nil || ev.nodes[stepArg.ID].reads {
			continue
		}
		s := ev.eval(stepArg)
		if !s.isInvariant() || s.base.isZero() {
			continue
		}
		step := s.base
		if neg {
			step = ev.al.negate(step)
		}
		ev.steps[i] = step
	}
}

func (ev *gEval) eval(n *ir.Node) aff {
	if n == nil {
		return affBottom()
	}
	if i := ev.nodes[n.ID].val; i > 0 {
		return ev.vals[i-1]
	}
	v := ev.evalRaw(n)
	ev.vals = append(ev.vals, v)
	ev.nodes[n.ID].val = int32(len(ev.vals))
	return v
}

func (ev *gEval) evalRaw(n *ir.Node) aff {
	al := &ev.al
	switch n.Op {
	case ir.OpConstInt:
		return al.affConst(n.IVal)
	case ir.OpParam:
		if ev.env != nil {
			if c, ok := ev.env[n.Name]; ok {
				return al.affConst(c)
			}
		}
		return affPoly(al.sym(symbol{name: n.Name}))
	case ir.OpThreadID:
		return affPoly(al.sym(symbol{name: tidSym}))
	case ir.OpNumThreads:
		return al.affConst(int64(ev.k.NumThreads))
	case ir.OpLiveIn:
		// Loop-invariant by construction; the symbol cancels whenever two
		// accesses share it.
		return affPoly(al.sym(symbol{name: "~li", idx: n.Idx}))
	case ir.OpCarry:
		if n.Idx >= len(ev.steps) || ev.steps[n.Idx] == nil {
			return affBottom()
		}
		return al.iterAff(al.sym(symbol{name: "~c", idx: n.Idx}), graphIter, ev.steps[n.Idx])
	case ir.OpAdd:
		return al.affAdd(ev.eval(n.Args[0]), ev.eval(n.Args[1]))
	case ir.OpSub:
		return al.affSub(ev.eval(n.Args[0]), ev.eval(n.Args[1]))
	case ir.OpMul:
		return al.affMul(ev.eval(n.Args[0]), ev.eval(n.Args[1]))
	case ir.OpDiv, ir.OpRem:
		m, ok := ev.eval(n.Args[1]).constVal()
		if !ok || m <= 0 {
			return affBottom()
		}
		return al.divMod(ev.eval(n.Args[0]), m, n.Op == ir.OpRem)
	}
	return affBottom()
}

// carryCycle finds the longest-latency path from carry i's reads to its
// update node through nodes that transitively depend on the carry.
// Latencies are never negative, so a node depends on the carry exactly
// when the longest-path pass reaches it.
func (ev *gEval) carryCycle(g *ir.Graph, i int, upd *ir.Node, lat func(*ir.Node) int) (ScalarRec, bool) {
	at := ev.nodes
	for _, n := range g.Nodes {
		at[n.ID].dist, at[n.ID].from = -1, nil
	}
	for _, n := range g.Nodes { // topological order; carry reads cost 0
		if n.Op == ir.OpCarry && n.Idx == i {
			at[n.ID].dist = 0
			continue
		}
		best, bestFrom := -1, (*ir.Node)(nil)
		for _, a := range n.Args {
			if d := at[a.ID].dist; d > best {
				best, bestFrom = d, a
			}
		}
		if best >= 0 {
			at[n.ID].dist, at[n.ID].from = best+lat(n), bestFrom
		}
	}
	total := at[upd.ID].dist
	if total <= 0 {
		return ScalarRec{}, false
	}
	path := ev.path[:0]
	for x := upd; x != nil; x = at[x.ID].from {
		path = append(path, x)
	}
	slices.Reverse(path)
	ev.path = path
	return ScalarRec{Carry: i, Lat: total, Path: ev.paths.Carve(path)}, true
}
