package ir

import "fmt"

// Validate checks the structural invariants of a kernel:
//
//   - params, maps and locals are mutually consistent (no duplicate
//     parameter names, every map backed by a parameter, local array
//     metadata well-formed);
//   - graph IDs are the graphs' pre-order positions (CollectGraphs) and
//     node IDs are 0..NumNodes()-1, each used once, ascending within
//     each graph — the dense IDs the back end indexes its tables by;
//   - every graph's nodes are in topological order (args, effect deps and
//     predicates refer to earlier nodes in the same graph — SSA-ish
//     def-before-use);
//   - live-in and carry indices are in range;
//   - carry updates exist for every carried register and are kind-correct;
//   - memory ops carry an ArrayRef with a width consistent with the value
//     kind and lane count;
//   - LoopOp argument counts match the body graph's live-in + carry
//     counts, loop bodies have an exit condition, and Graph.Loops mirrors
//     the LoopOp nodes;
//   - value and result kinds of operands are consistent with each
//     operation, arithmetic is on values and params are declared.
//
// The lowering pass must produce kernels that validate; the scheduler,
// hw.Compile and the simulator rely on these invariants.
func Validate(k *Kernel) error {
	if k.Top == nil {
		return fmt.Errorf("ir: kernel %s has no top-level graph", k.Name)
	}
	if k.NumThreads <= 0 {
		return fmt.Errorf("ir: kernel %s has NumThreads=%d", k.Name, k.NumThreads)
	}
	if err := validateDecls(k); err != nil {
		return fmt.Errorf("ir: kernel %s: %w", k.Name, err)
	}
	graphs := k.CollectGraphs()
	numNodes := k.NumNodes()
	// owner[id] is the pre-order position + 1 of the graph holding node id.
	owner := make([]int32, numNodes)
	for i, g := range graphs {
		if g.ID != i {
			return fmt.Errorf("ir: kernel %s: graph %s has id #%d at pre-order position %d", k.Name, g.Name, g.ID, i)
		}
		for _, n := range g.Nodes {
			if n == nil {
				continue // reported by validateGraph with an index
			}
			if n.ID < 0 || n.ID >= numNodes {
				return fmt.Errorf("ir: kernel %s: node id n%d outside [0,%d)", k.Name, n.ID, numNodes)
			}
			if o := owner[n.ID]; o != 0 {
				return fmt.Errorf("ir: kernel %s: node id n%d used in both graph #%d and graph #%d",
					k.Name, n.ID, graphs[o-1].ID, g.ID)
			}
			owner[n.ID] = int32(i + 1)
		}
	}
	listed := make([]bool, numNodes) // by node ID: named in its graph's Loops
	for _, g := range graphs {
		if err := validateGraph(k, g, listed); err != nil {
			return fmt.Errorf("ir: kernel %s graph %s(#%d): %w", k.Name, g.Name, g.ID, err)
		}
	}
	return nil
}

// validateDecls checks the kernel's parameter/map/local declarations.
func validateDecls(k *Kernel) error {
	params := map[string]Param{}
	for _, p := range k.Params {
		if p.Name == "" {
			return fmt.Errorf("parameter without a name")
		}
		if _, dup := params[p.Name]; dup {
			return fmt.Errorf("duplicate parameter %q", p.Name)
		}
		params[p.Name] = p
	}
	seenMap := map[string]bool{}
	for _, m := range k.Maps {
		if seenMap[m.Name] {
			return fmt.Errorf("variable %q mapped twice", m.Name)
		}
		seenMap[m.Name] = true
		p, ok := params[m.Name]
		if !ok {
			return fmt.Errorf("map %q has no backing parameter", m.Name)
		}
		// Arrays and writable scalars live behind pointers; only to-mapped
		// (firstprivate) scalars are passed by value.
		if !m.Scalar && !p.Pointer {
			return fmt.Errorf("array map %q backed by non-pointer parameter", m.Name)
		}
		if m.Scalar && m.Dir != MapTo && !p.Pointer {
			return fmt.Errorf("writable scalar map %q backed by non-pointer parameter", m.Name)
		}
	}
	for i, l := range k.Locals {
		if l.ID != i {
			return fmt.Errorf("local array %q has ID %d at index %d", l.Name, l.ID, i)
		}
		if l.NumElems <= 0 || l.ElemWords <= 0 {
			return fmt.Errorf("local array %q has elems=%d words/elem=%d", l.Name, l.NumElems, l.ElemWords)
		}
	}
	return nil
}

func validateGraph(k *Kernel, g *Graph, listed []bool) error {
	for i, n := range g.Nodes {
		if n == nil {
			return fmt.Errorf("node %d is nil", i)
		}
		if i > 0 && n.ID <= g.Nodes[i-1].ID {
			return fmt.Errorf("node n%d follows n%d (IDs must ascend)", n.ID, g.Nodes[i-1].ID)
		}
	}
	// IDs ascend, so they order the graph as positions do.
	before := func(user *Node, dep *Node) error {
		if g.Index(dep) < 0 {
			return fmt.Errorf("n%d references node n%d outside this graph", user.ID, dep.ID)
		}
		if dep.ID >= user.ID {
			return fmt.Errorf("n%d references later node n%d (not topological)", user.ID, dep.ID)
		}
		return nil
	}
	for _, n := range g.Nodes {
		for _, a := range n.Args {
			if err := before(n, a); err != nil {
				return err
			}
		}
		for _, d := range n.EffectDeps {
			if err := before(n, d); err != nil {
				return err
			}
		}
		if n.Pred != nil {
			if err := before(n, n.Pred); err != nil {
				return err
			}
			if n.Pred.Kind != KindInt {
				return fmt.Errorf("n%d predicate must be int, got %s", n.ID, n.Pred.Kind)
			}
		}
		if err := validateNode(k, g, n); err != nil {
			return err
		}
	}
	if g.Cond != nil {
		if g.Index(g.Cond) < 0 {
			return fmt.Errorf("cond node n%d not in graph", g.Cond.ID)
		}
		if g.Cond.Kind != KindInt {
			return fmt.Errorf("cond node n%d must be int, got %s", g.Cond.ID, g.Cond.Kind)
		}
	}
	if len(g.CarryUpdate) != g.NumCarry {
		return fmt.Errorf("carry updates %d != carried registers %d", len(g.CarryUpdate), g.NumCarry)
	}
	for i, u := range g.CarryUpdate {
		if u == nil {
			return fmt.Errorf("carry %d has no update", i)
		}
		if g.Index(u) < 0 {
			return fmt.Errorf("carry %d update n%d not in graph", i, u.ID)
		}
	}
	// Carried-register reads must agree with the value that updates them.
	for _, n := range g.Nodes {
		if n.Op != OpCarry {
			continue
		}
		u := g.CarryUpdate[n.Idx]
		if u.Kind != n.Kind {
			return fmt.Errorf("carry %d read as %s but updated with %s (n%d)", n.Idx, n.Kind, u.Kind, u.ID)
		}
	}
	// Graph.Loops must mirror exactly the LoopOp nodes of the graph.
	for _, lp := range g.Loops {
		if lp == nil || lp.Op != OpLoopOp {
			return fmt.Errorf("Loops list contains a non-loop node")
		}
		if g.Index(lp) < 0 {
			return fmt.Errorf("Loops list references n%d outside this graph", lp.ID)
		}
		if listed[lp.ID] {
			return fmt.Errorf("loop n%d listed twice in Loops", lp.ID)
		}
		listed[lp.ID] = true
	}
	for _, n := range g.Nodes {
		if n.Op == OpLoopOp && !listed[n.ID] {
			return fmt.Errorf("loop n%d missing from Loops list", n.ID)
		}
	}
	return nil
}

func wantArgs(n *Node, want int) error {
	if len(n.Args) != want {
		return fmt.Errorf("n%d %s has %d args, want %d", n.ID, n.Op, len(n.Args), want)
	}
	return nil
}

func validateNode(k *Kernel, g *Graph, n *Node) error {
	switch n.Op {
	case OpConstInt:
		return wantArgs(n, 0)
	case OpConstFloat:
		return wantArgs(n, 0)
	case OpParam:
		for _, p := range k.Params {
			if p.Name == n.Name {
				return wantArgs(n, 0)
			}
		}
		return fmt.Errorf("n%d param %q not in the kernel interface", n.ID, n.Name)
	case OpThreadID, OpNumThreads:
		return wantArgs(n, 0)
	case OpLiveIn:
		if n.Idx < 0 || n.Idx >= g.NumLiveIn {
			return fmt.Errorf("n%d live-in index %d out of range [0,%d)", n.ID, n.Idx, g.NumLiveIn)
		}
		return wantArgs(n, 0)
	case OpCarry:
		if n.Idx < 0 || n.Idx >= g.NumCarry {
			return fmt.Errorf("n%d carry index %d out of range [0,%d)", n.ID, n.Idx, g.NumCarry)
		}
		return wantArgs(n, 0)
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpLt, OpLe, OpGt, OpGe,
		OpEq, OpNe, OpAnd, OpOr:
		if err := wantArgs(n, 2); err != nil {
			return err
		}
		if n.Args[0].Kind != n.Args[1].Kind {
			return fmt.Errorf("n%d %s mixes kinds %s and %s", n.ID, n.Op, n.Args[0].Kind, n.Args[1].Kind)
		}
		switch n.Op {
		case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe, OpAnd, OpOr:
			if n.Kind != KindInt {
				return fmt.Errorf("n%d %s must produce int, got %s", n.ID, n.Op, n.Kind)
			}
		default: // arithmetic follows its operands, which are values
			if n.Kind != KindInt && n.Kind != KindFloat && n.Kind != KindVec {
				return fmt.Errorf("n%d %s of %s operands", n.ID, n.Op, n.Kind)
			}
			if n.Kind != n.Args[0].Kind {
				return fmt.Errorf("n%d %s produces %s from %s operands", n.ID, n.Op, n.Kind, n.Args[0].Kind)
			}
			if n.Kind == KindVec && (n.Lanes != n.Args[0].Lanes || n.Lanes != n.Args[1].Lanes) {
				return fmt.Errorf("n%d %s lane mismatch: %d vs %d/%d",
					n.ID, n.Op, n.Lanes, n.Args[0].Lanes, n.Args[1].Lanes)
			}
		}
		if n.Op == OpRem && n.Args[0].Kind != KindInt {
			return fmt.Errorf("n%d %% requires int operands, got %s", n.ID, n.Args[0].Kind)
		}
		return nil
	case OpNot:
		if err := wantArgs(n, 1); err != nil {
			return err
		}
		if n.Args[0].Kind != KindInt || n.Kind != KindInt {
			return fmt.Errorf("n%d ! must map int to int, got %s -> %s", n.ID, n.Args[0].Kind, n.Kind)
		}
		return nil
	case OpSelect:
		if err := wantArgs(n, 3); err != nil {
			return err
		}
		if n.Args[0].Kind != KindInt {
			return fmt.Errorf("n%d select condition must be int", n.ID)
		}
		if n.Args[1].Kind != n.Args[2].Kind {
			return fmt.Errorf("n%d select arms disagree: %s vs %s", n.ID, n.Args[1].Kind, n.Args[2].Kind)
		}
		if n.Kind != n.Args[1].Kind {
			return fmt.Errorf("n%d select produces %s from %s arms", n.ID, n.Kind, n.Args[1].Kind)
		}
		return nil
	case OpIntToFloat:
		if err := wantArgs(n, 1); err != nil {
			return err
		}
		if n.Args[0].Kind != KindInt || n.Kind != KindFloat {
			return fmt.Errorf("n%d int->float conversion is %s -> %s", n.ID, n.Args[0].Kind, n.Kind)
		}
		return nil
	case OpFloatToInt:
		if err := wantArgs(n, 1); err != nil {
			return err
		}
		if n.Args[0].Kind != KindFloat || n.Kind != KindInt {
			return fmt.Errorf("n%d float->int conversion is %s -> %s", n.ID, n.Args[0].Kind, n.Kind)
		}
		return nil
	case OpSplat:
		if err := wantArgs(n, 1); err != nil {
			return err
		}
		if n.Args[0].Kind == KindVec || n.Args[0].Kind == KindNone {
			return fmt.Errorf("n%d splat of non-scalar %s", n.ID, n.Args[0].Kind)
		}
		if n.Kind != KindVec || n.Lanes < 1 {
			return fmt.Errorf("n%d splat must produce a vector, got %s lanes=%d", n.ID, n.Kind, n.Lanes)
		}
		return nil
	case OpExtract:
		if err := wantArgs(n, 2); err != nil {
			return err
		}
		if n.Args[0].Kind != KindVec {
			return fmt.Errorf("n%d extract from non-vector", n.ID)
		}
		if n.Args[1].Kind != KindInt {
			return fmt.Errorf("n%d extract lane must be int", n.ID)
		}
		if n.Kind != KindFloat {
			return fmt.Errorf("n%d extract must produce float, got %s", n.ID, n.Kind)
		}
		return nil
	case OpInsert:
		if err := wantArgs(n, 3); err != nil {
			return err
		}
		if n.Args[0].Kind != KindVec {
			return fmt.Errorf("n%d insert into non-vector", n.ID)
		}
		if n.Args[1].Kind != KindInt {
			return fmt.Errorf("n%d insert lane must be int", n.ID)
		}
		if n.Args[2].Kind != KindFloat {
			return fmt.Errorf("n%d insert of non-float %s", n.ID, n.Args[2].Kind)
		}
		if n.Kind != KindVec || n.Lanes != n.Args[0].Lanes {
			return fmt.Errorf("n%d insert must produce a %d-lane vector, got %s lanes=%d",
				n.ID, n.Args[0].Lanes, n.Kind, n.Lanes)
		}
		return nil
	case OpLoad:
		if err := wantArgs(n, 1); err != nil {
			return err
		}
		if n.Kind == KindNone {
			return fmt.Errorf("n%d load produces no value", n.ID)
		}
		if n.Kind == KindVec {
			if n.Lanes < 1 {
				return fmt.Errorf("n%d vector load with lanes=%d", n.ID, n.Lanes)
			}
			if n.Width != 1 && n.Width != n.Lanes {
				return fmt.Errorf("n%d vector load width %d is neither 1 element nor %d lanes", n.ID, n.Width, n.Lanes)
			}
		} else if n.Width != 1 {
			return fmt.Errorf("n%d scalar load with width %d", n.ID, n.Width)
		}
		return validateMem(k, n)
	case OpStore:
		if err := wantArgs(n, 2); err != nil {
			return err
		}
		if n.Kind != KindNone {
			return fmt.Errorf("n%d store must not produce a value", n.ID)
		}
		if v := n.Args[1]; v.Kind == KindVec {
			if n.Width != 1 && n.Width != v.Lanes {
				return fmt.Errorf("n%d vector store width %d is neither 1 element nor %d lanes", n.ID, n.Width, v.Lanes)
			}
		} else if n.Width != 1 {
			return fmt.Errorf("n%d scalar store with width %d", n.ID, n.Width)
		}
		return validateMem(k, n)
	case OpLock, OpUnlock:
		if n.SemID < 0 || n.SemID >= k.NumSems {
			return fmt.Errorf("n%d %s semaphore %d out of range [0,%d)", n.ID, n.Op, n.SemID, k.NumSems)
		}
		return wantArgs(n, 0)
	case OpBarrier:
		return wantArgs(n, 0)
	case OpLoopOp:
		if n.Sub == nil {
			return fmt.Errorf("n%d loop without body graph", n.ID)
		}
		if n.Kind != KindNone {
			return fmt.Errorf("n%d loop must not produce a direct value (use loopout)", n.ID)
		}
		if n.Sub.Cond == nil {
			return fmt.Errorf("n%d loop body graph #%d has no exit condition", n.ID, n.Sub.ID)
		}
		want := n.Sub.NumLiveIn + n.Sub.NumCarry
		if len(n.Args) != want {
			return fmt.Errorf("n%d loop has %d args, body needs %d (livein %d + carry %d)",
				n.ID, len(n.Args), want, n.Sub.NumLiveIn, n.Sub.NumCarry)
		}
		return nil
	case OpLoopOut:
		if err := wantArgs(n, 1); err != nil {
			return err
		}
		lp := n.Args[0]
		if lp.Op != OpLoopOp {
			return fmt.Errorf("n%d loopout of non-loop n%d", n.ID, lp.ID)
		}
		if n.Idx < 0 || n.Idx >= lp.Sub.NumCarry {
			return fmt.Errorf("n%d loopout index %d out of range [0,%d)", n.ID, n.Idx, lp.Sub.NumCarry)
		}
		if len(lp.Sub.CarryUpdate) == lp.Sub.NumCarry {
			if u := lp.Sub.CarryUpdate[n.Idx]; u != nil && u.Kind != n.Kind {
				return fmt.Errorf("n%d loopout reads carry %d as %s but body updates it with %s",
					n.ID, n.Idx, n.Kind, u.Kind)
			}
		}
		return nil
	}
	return fmt.Errorf("n%d has unknown op %d", n.ID, int(n.Op))
}

func validateMem(k *Kernel, n *Node) error {
	if n.Arr == nil {
		return fmt.Errorf("n%d %s without array ref", n.ID, n.Op)
	}
	if n.Width <= 0 {
		return fmt.Errorf("n%d %s width %d", n.ID, n.Op, n.Width)
	}
	if n.Arr.Space == SpaceLocal {
		if n.Arr.LocalID < 0 || n.Arr.LocalID >= len(k.Locals) {
			return fmt.Errorf("n%d local array id %d out of range", n.ID, n.Arr.LocalID)
		}
	} else {
		found := false
		for _, p := range k.Params {
			if p.Pointer && p.Name == n.Arr.Name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("n%d references unmapped global array %q", n.ID, n.Arr.Name)
		}
	}
	if n.Args[0].Kind != KindInt {
		return fmt.Errorf("n%d memory index must be int", n.ID)
	}
	return nil
}
