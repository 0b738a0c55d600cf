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
	"math"
	"slices"

	"paravis/internal/ir"
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
	kd := &KernelDeps{ByGraph: make(map[*ir.Graph]*GraphDeps)}
	var cs cycleScratch
	for _, g := range k.CollectGraphs() {
		kd.ByGraph[g] = analyzeGraph(g, k, env, lat, &cs)
	}
	return kd
}

// graphIter is the one loop key of the IR pass's affine forms: a
// graph's iteration counter t, so a form is base + coef[graphIter]*t
// with polynomial coefficients over the runtime parameters (and opaque
// per-graph symbols for live-ins and carry seeds, which cancel in
// same-graph differences).
var graphIter = &loopInfo{name: "t"}

type gEval struct {
	g     *ir.Graph
	k     *ir.Kernel
	env   map[string]int64
	steps map[int]poly // induction carries: per-iteration increment
	memo  map[*ir.Node]aff
}

func analyzeGraph(g *ir.Graph, k *ir.Kernel, env map[string]int64, lat func(*ir.Node) int, cs *cycleScratch) *GraphDeps {
	ev := &gEval{g: g, k: k, env: env, memo: make(map[*ir.Node]aff)}
	ev.findInductions()
	gd := &GraphDeps{}

	// Memory recurrences: unpredicated store -> unpredicated load, same
	// array, pairwise.
	var loads, stores []*ir.Node
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
			d, ok := sa.base.sub(la.base).constMultipleOf(slope)
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
	for i, upd := range g.CarryUpdate {
		if upd == nil {
			continue
		}
		if rec, ok := cs.carryCycle(g, i, upd, lat); ok {
			gd.Scalar = append(gd.Scalar, rec)
		}
	}
	return gd
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
func (ev *gEval) findInductions() {
	ev.steps = make(map[int]poly)
	for i, upd := range ev.g.CarryUpdate {
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
		if readsAnyCarry(stepArg, make(map[*ir.Node]bool)) {
			continue
		}
		s := ev.eval(stepArg)
		if !s.isInvariant() || s.base.isZero() {
			continue
		}
		step := s.base
		if neg {
			step = step.negate()
		}
		ev.steps[i] = step
	}
}

func readsAnyCarry(n *ir.Node, seen map[*ir.Node]bool) bool {
	if n == nil || seen[n] {
		return false
	}
	seen[n] = true
	if n.Op == ir.OpCarry {
		return true
	}
	for _, a := range n.Args {
		if readsAnyCarry(a, seen) {
			return true
		}
	}
	return false
}

func (ev *gEval) eval(n *ir.Node) aff {
	if n == nil {
		return affBottom()
	}
	if v, ok := ev.memo[n]; ok {
		return v
	}
	v := ev.evalRaw(n)
	ev.memo[n] = v
	return v
}

func (ev *gEval) evalRaw(n *ir.Node) aff {
	switch n.Op {
	case ir.OpConstInt:
		return affConst(n.IVal)
	case ir.OpParam:
		if ev.env != nil {
			if c, ok := ev.env[n.Name]; ok {
				return affConst(c)
			}
		}
		return affPoly(polySym(n.Name))
	case ir.OpThreadID:
		return affPoly(polySym(tidSym))
	case ir.OpNumThreads:
		return affConst(int64(ev.k.NumThreads))
	case ir.OpLiveIn:
		// Loop-invariant by construction; the symbol cancels whenever two
		// accesses share it.
		return affPoly(polySym("~li" + itoa(int64(n.Idx))))
	case ir.OpCarry:
		step, ok := ev.steps[n.Idx]
		if !ok {
			return affBottom()
		}
		return affPoly(polySym("~c"+itoa(int64(n.Idx)))).setCoef(graphIter, step)
	case ir.OpAdd:
		return ev.eval(n.Args[0]).add(ev.eval(n.Args[1]))
	case ir.OpSub:
		return ev.eval(n.Args[0]).sub(ev.eval(n.Args[1]))
	case ir.OpMul:
		return ev.eval(n.Args[0]).mul(ev.eval(n.Args[1]))
	case ir.OpDiv, ir.OpRem:
		m, ok := ev.eval(n.Args[1]).constVal()
		if !ok || m <= 0 {
			return affBottom()
		}
		return ev.eval(n.Args[0]).divMod(m, n.Op == ir.OpRem)
	}
	return affBottom()
}

// cycleScratch holds carryCycle's path state in dense slices, indexed
// by node ID minus the graph's lowest ID and reused for every carry of a
// kernel. IDs are unique per kernel, and a validated graph's arguments
// and carry updates are its own nodes.
type cycleScratch struct {
	lo   int
	dist []int // longest latency from the carry's read; -1 when none
	from []*ir.Node
}

// carryCycle finds the longest-latency path from carry i's reads to its
// update node through nodes that transitively depend on the carry.
// Latencies are never negative, so a node depends on the carry exactly
// when the longest-path pass reaches it.
func (cs *cycleScratch) carryCycle(g *ir.Graph, i int, upd *ir.Node, lat func(*ir.Node) int) (ScalarRec, bool) {
	cs.lo = math.MaxInt
	hi := 0
	for _, n := range g.Nodes {
		cs.lo, hi = min(cs.lo, n.ID), max(hi, n.ID+1)
	}
	cs.dist = slices.Grow(cs.dist[:0], hi-cs.lo)[:hi-cs.lo]
	cs.from = slices.Grow(cs.from[:0], hi-cs.lo)[:hi-cs.lo]
	for k := range cs.dist {
		cs.dist[k], cs.from[k] = -1, nil
	}
	at := func(n *ir.Node) int { return n.ID - cs.lo }
	for _, n := range g.Nodes { // topological order; carry reads cost 0
		if n.Op == ir.OpCarry && n.Idx == i {
			cs.dist[at(n)] = 0
			continue
		}
		best, bestFrom := -1, (*ir.Node)(nil)
		for _, a := range n.Args {
			if d := cs.dist[at(a)]; d > best {
				best, bestFrom = d, a
			}
		}
		if best >= 0 {
			cs.dist[at(n)], cs.from[at(n)] = best+lat(n), bestFrom
		}
	}
	total := cs.dist[at(upd)]
	if total <= 0 {
		return ScalarRec{}, false
	}
	n := 0
	for x := upd; x != nil; x = cs.from[at(x)] {
		n++
	}
	path := make([]*ir.Node, n)
	for x := upd; x != nil; x = cs.from[at(x)] {
		n--
		path[n] = x
	}
	return ScalarRec{Carry: i, Lat: total, Path: path}, true
}
