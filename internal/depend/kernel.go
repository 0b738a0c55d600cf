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
	for _, g := range k.CollectGraphs() {
		kd.ByGraph[g] = analyzeGraph(g, k, env, lat)
	}
	return kd
}

// graff is an affine form in one graph's iteration counter t:
// base + slope*t, with polynomial coefficients over the runtime
// parameters (and opaque per-graph symbols for live-ins and carry
// seeds, which cancel in same-graph differences).
type graff struct {
	ok    bool
	base  poly
	slope poly
}

func gBottom() graff            { return graff{} }
func gPoly(p poly) graff        { return graff{ok: true, base: p} }
func gConst(c int64) graff      { return gPoly(polyConst(c)) }
func (a graff) invariant() bool { return a.ok && a.slope.isZero() }

func (a graff) add(b graff) graff {
	if !a.ok || !b.ok {
		return gBottom()
	}
	return graff{ok: true, base: a.base.add(b.base), slope: a.slope.add(b.slope)}
}

func (a graff) sub(b graff) graff {
	if !a.ok || !b.ok {
		return gBottom()
	}
	return graff{ok: true, base: a.base.sub(b.base), slope: a.slope.sub(b.slope)}
}

func (a graff) mul(b graff) graff {
	if !a.ok || !b.ok {
		return gBottom()
	}
	switch {
	case b.invariant():
		return graff{ok: true, base: a.base.mul(b.base), slope: a.slope.mul(b.base)}
	case a.invariant():
		return graff{ok: true, base: b.base.mul(a.base), slope: b.slope.mul(a.base)}
	}
	return gBottom()
}

// divMod mirrors aff.divMod: exact only when slope and the non-constant
// base monomials are divisible by m.
func (a graff) divMod(m int64, mod bool) graff {
	if !a.ok || m <= 0 || !a.slope.divisibleBy(m) {
		return gBottom()
	}
	base := a.base.clone()
	c := base[""]
	delete(base, "")
	if !base.divisibleBy(m) {
		return gBottom()
	}
	r := c % m
	if r < 0 {
		r += m
	}
	if mod {
		return gConst(r)
	}
	out := graff{ok: true, base: base.divInt(m), slope: a.slope.divInt(m)}
	out.base[""] += (c - r) / m
	if out.base[""] == 0 {
		delete(out.base, "")
	}
	return out
}

type gEval struct {
	g     *ir.Graph
	k     *ir.Kernel
	env   map[string]int64
	steps map[int]poly // induction carries: per-iteration increment
	memo  map[*ir.Node]graff
}

func analyzeGraph(g *ir.Graph, k *ir.Kernel, env map[string]int64, lat func(*ir.Node) int) *GraphDeps {
	ev := &gEval{g: g, k: k, env: env, memo: make(map[*ir.Node]graff)}
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
		if !sa.ok || sa.slope.isZero() {
			continue
		}
		for _, ld := range loads {
			if !sameArray(st.Arr, ld.Arr) {
				continue
			}
			la := ev.eval(ld.Args[0])
			if !la.ok || !la.slope.equal(sa.slope) {
				continue
			}
			// store(t) and load(t+d) touch the same element when
			// base_S - base_L == d * slope exactly.
			d, ok := sa.base.sub(la.base).constMultipleOf(sa.slope)
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
		rec := ev.carryCycle(i, upd, lat)
		if rec != nil {
			gd.Scalar = append(gd.Scalar, *rec)
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
		if !s.invariant() || s.base.isZero() {
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

func (ev *gEval) eval(n *ir.Node) graff {
	if n == nil {
		return gBottom()
	}
	if v, ok := ev.memo[n]; ok {
		return v
	}
	v := ev.evalRaw(n)
	ev.memo[n] = v
	return v
}

func (ev *gEval) evalRaw(n *ir.Node) graff {
	switch n.Op {
	case ir.OpConstInt:
		return gConst(n.IVal)
	case ir.OpParam:
		if ev.env != nil {
			if c, ok := ev.env[n.Name]; ok {
				return gConst(c)
			}
		}
		return gPoly(polySym(n.Name))
	case ir.OpThreadID:
		return gPoly(polySym(tidSym))
	case ir.OpNumThreads:
		return gConst(int64(ev.k.NumThreads))
	case ir.OpLiveIn:
		// Loop-invariant by construction; the symbol cancels whenever two
		// accesses share it.
		return gPoly(polySym("~li" + itoa(int64(n.Idx))))
	case ir.OpCarry:
		step, ok := ev.steps[n.Idx]
		if !ok {
			return gBottom()
		}
		return graff{ok: true, base: polySym("~c" + itoa(int64(n.Idx))), slope: step.clone()}
	case ir.OpAdd:
		return ev.eval(n.Args[0]).add(ev.eval(n.Args[1]))
	case ir.OpSub:
		return ev.eval(n.Args[0]).sub(ev.eval(n.Args[1]))
	case ir.OpMul:
		return ev.eval(n.Args[0]).mul(ev.eval(n.Args[1]))
	case ir.OpDiv, ir.OpRem:
		c := ev.eval(n.Args[1])
		m, ok := c.base.constVal()
		if !c.invariant() || !ok || m <= 0 {
			return gBottom()
		}
		return ev.eval(n.Args[0]).divMod(m, n.Op == ir.OpRem)
	}
	return gBottom()
}

// carryCycle finds the longest-latency path from carry i's reads to its
// update node through nodes that transitively depend on the carry.
func (ev *gEval) carryCycle(i int, upd *ir.Node, lat func(*ir.Node) int) *ScalarRec {
	// onCycle: nodes whose value transitively uses carry i.
	onCycle := make(map[*ir.Node]bool)
	for _, n := range ev.g.Nodes { // topological order
		if n.Op == ir.OpCarry && n.Idx == i {
			onCycle[n] = true
			continue
		}
		for _, a := range n.Args {
			if onCycle[a] {
				onCycle[n] = true
				break
			}
		}
	}
	if !onCycle[upd] {
		return nil
	}
	// Longest-latency DP along onCycle edges; carry reads cost 0.
	dist := make(map[*ir.Node]int)
	from := make(map[*ir.Node]*ir.Node)
	for _, n := range ev.g.Nodes {
		if !onCycle[n] {
			continue
		}
		if n.Op == ir.OpCarry && n.Idx == i {
			dist[n] = 0
			continue
		}
		best, bestFrom := -1, (*ir.Node)(nil)
		for _, a := range n.Args {
			if d, ok := dist[a]; ok && d > best {
				best, bestFrom = d, a
			}
		}
		if best < 0 {
			continue
		}
		dist[n] = best + lat(n)
		from[n] = bestFrom
	}
	total, ok := dist[upd]
	if !ok || total <= 0 {
		return nil
	}
	var path []*ir.Node
	for n := upd; n != nil; n = from[n] {
		path = append(path, n)
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return &ScalarRec{Carry: i, Lat: total, Path: path}
}
