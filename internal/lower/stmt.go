package lower

import (
	"fmt"
	"slices"

	"paravis/internal/ir"
	"paravis/internal/minic"
)

func (lw *lowerer) lowerBlock(g *gctx, b *minic.BlockStmt) error {
	for _, s := range b.Stmts {
		if err := lw.lowerStmt(g, s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) lowerStmt(g *gctx, s minic.Stmt) error {
	switch st := s.(type) {
	case *minic.BlockStmt:
		return lw.lowerBlock(g, st)
	case *minic.DeclStmt:
		return lw.lowerDecl(g, st)
	case *minic.ExprStmt:
		_, err := lw.lowerExpr(g, st.X)
		return err
	case *minic.ForStmt:
		return lw.lowerFor(g, st)
	case *minic.IfStmt:
		return lw.lowerIf(g, st)
	case *minic.CriticalStmt:
		return lw.lowerCritical(g, st)
	case *minic.BarrierStmt:
		if g.pred != nil {
			return lw.errf(st.Pos, "barrier inside a conditional would deadlock")
		}
		n := g.b.Barrier()
		lw.attachFence(g, n)
		return nil
	case *minic.ReturnStmt:
		return lw.errf(st.Pos, "return inside target region")
	case *minic.TargetStmt:
		return lw.errf(st.Pos, "nested target region")
	}
	return lw.errf(minic.StmtPos(s), "unhandled statement %T", s)
}

func (lw *lowerer) lowerDecl(g *gctx, st *minic.DeclStmt) error {
	id := minic.DeclIndex(st, len(lw.slots))
	if id < 0 {
		return lw.errf(st.Pos, "internal: unresolved declaration %s", st.Name)
	}
	if st.Typ.IsArray() {
		// Per-thread BRAM buffer. The same declaration site always refers
		// to the same physical BRAM (loop bodies re-enter the same block).
		arr := lw.localBy[id]
		if arr == nil {
			elemWords := st.Typ.Elem.ScalarWords()
			n := 1
			for _, d := range st.Typ.Dims {
				n *= d
			}
			la := ir.LocalArray{
				ID:        len(lw.k.Locals),
				Name:      fmt.Sprintf("%s@%s", st.Name, st.Pos),
				ElemWords: elemWords,
				NumElems:  n,
			}
			lw.k.Locals = append(lw.k.Locals, la)
			arr = lw.newArray(&ir.ArrayRef{Space: ir.SpaceLocal, Name: st.Name, LocalID: la.ID, ElemWords: elemWords})
			lw.localBy[id] = arr
		}
		lw.bind(st, st.Name, st.Typ, stLocalArr, arr)
		return nil
	}
	var val *ir.Node
	var err error
	if st.Init != nil {
		val, err = lw.lowerExpr(g, st.Init)
		if err != nil {
			return err
		}
	} else {
		kind, lanes := irKind(st.Typ)
		switch kind {
		case ir.KindFloat:
			val = g.b.ConstFloat(0)
		case ir.KindVec:
			val = g.b.Splat(g.b.ConstFloat(0), lanes)
		default:
			val = g.b.ConstInt(0)
		}
	}
	g.set(lw.bind(st, st.Name, st.Typ, stSSA, nil), val)
	return nil
}

// lowerFor lowers a for loop: init statements run in the parent graph, the
// body+cond+post become a new graph embedded as a LoopOp node.
func (lw *lowerer) lowerFor(g *gctx, st *minic.ForStmt) error {
	name := minic.LoopName(st)
	if st.Unroll > 1 {
		un, err := unrollFor(st)
		if err != nil {
			return err
		}
		st = un
	}

	for _, is := range st.Init {
		if err := lw.lowerStmt(g, is); err != nil {
			return err
		}
	}

	// Determine carried slots: free variables assigned inside body/post
	// that resolve to SSA slots declared outside the loop graph.
	sub := lw.newGctx(g, name)
	lw.free = assignedFreeVars(st, lw.free[:0]) // consumed before the body lowers
	carrySlots := make([]*slot, 0, len(lw.free))
	sub.carryInits = make([]*ir.Node, 0, len(lw.free))
	for _, d := range lw.free {
		sl := lw.slot(d)
		if sl == nil || sl.st != stSSA {
			continue
		}
		carrySlots = append(carrySlots, sl)
	}
	sub.carried = carrySlots
	for i, sl := range carrySlots {
		init, err := g.read(sl)
		if err != nil {
			return err
		}
		sub.carryInits = append(sub.carryInits, init)
		kind, lanes := irKind(sl.typ)
		sub.set(sl, sub.b.Carry(i, kind, lanes))
	}

	// Loop-continue condition, evaluated at the top of each iteration.
	if st.Cond != nil {
		cond, err := lw.lowerExpr(sub, st.Cond)
		if err != nil {
			return err
		}
		sub.b.Graph().Cond = cond
	} else {
		sub.b.Graph().Cond = sub.b.ConstInt(1)
	}

	if err := lw.lowerBlock(sub, st.Body); err != nil {
		return err
	}
	for _, ps := range st.Post {
		if err := lw.lowerStmt(sub, ps); err != nil {
			return err
		}
	}

	subGraph := sub.b.Graph()
	subGraph.CarryUpdate = make([]*ir.Node, len(carrySlots))
	for i, sl := range carrySlots {
		cur, err := sub.read(sl)
		if err != nil {
			return err
		}
		subGraph.CarryUpdate[i] = cur
	}

	// Embed the loop in the parent graph.
	args := append(append(make([]*ir.Node, 0, len(sub.liveArgs)+len(sub.carryInits)), sub.liveArgs...), sub.carryInits...)
	loopNode := g.b.Loop(subGraph, args...)
	loopNode.Pred = g.pred
	lw.attachLoop(g, loopNode, sub)

	// After the loop the parent sees the final carried values.
	for i, sl := range carrySlots {
		kind, lanes := irKind(sl.typ)
		out := g.b.LoopOut(loopNode, i, kind, lanes)
		g.write(sl, out)
	}
	return nil
}

// unrollFor rewrites a `#pragma unroll f` loop into an equivalent loop whose
// body contains f guarded replicas of the original body:
//
//	for(init; C; ) { B; P; if(C){ B; P; if(C){ ... }}}
//
// This preserves semantics for arbitrary trip counts (trailing replicas are
// predicated off), matching how HLS unrolling emits guarded copies.
func unrollFor(st *minic.ForStmt) (*minic.ForStmt, error) {
	if len(st.Post) == 0 {
		return nil, &Error{Pos: st.Pos, Msg: "#pragma unroll requires a loop increment"}
	}
	if st.Cond == nil {
		return nil, &Error{Pos: st.Pos, Msg: "#pragma unroll requires a loop condition"}
	}
	replica := func(inner []minic.Stmt) []minic.Stmt {
		stmts := make([]minic.Stmt, 0, len(st.Body.Stmts)+len(st.Post)+1)
		stmts = append(append(stmts, st.Body.Stmts...), st.Post...)
		if inner != nil {
			stmts = append(stmts, &minic.IfStmt{
				Cond: st.Cond,
				Then: &minic.BlockStmt{Stmts: inner, Pos: st.Pos},
				Pos:  st.Pos,
			})
		}
		return stmts
	}
	var inner []minic.Stmt
	for i := 0; i < st.Unroll; i++ {
		inner = replica(inner)
	}
	return &minic.ForStmt{
		Init: st.Init,
		Cond: st.Cond,
		Post: nil,
		Body: &minic.BlockStmt{Stmts: inner, Pos: st.Body.Pos},
		Pos:  st.Pos,
	}, nil
}

// assignedFreeVars returns the variables of enclosing scopes a loop
// mutates: the declarations its body and post clauses write but do not
// declare, in first-write order. A lane store v[i] = e writes v, since
// lowering makes it a new SSA value of the whole vector; element and wide
// stores write memory, not a variable. It appends them to order.
func assignedFreeVars(st *minic.ForStmt, order []minic.Decl) []minic.Decl {
	var declared, written minic.DeclSet
	visit := func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok {
			declared.Add(d)
		}
		var target minic.Expr
		if as, ok := n.(*minic.AssignExpr); ok {
			target = as.LHS
		} else if step, ok := n.(*minic.IncDec); ok {
			target = step.X
		}
		if lane, ok := target.(*minic.VecElem); ok {
			target = lane.Vec
		}
		if id, ok := target.(*minic.Ident); ok && !written.Has(id.Decl) {
			written.Add(id.Decl)
			order = append(order, id.Decl)
		}
		return true
	}
	minic.Inspect(st.Body, visit)
	for _, p := range st.Post {
		minic.Inspect(p, visit)
	}
	return slices.DeleteFunc(order, func(d minic.Decl) bool { return declared.Has(d) })
}

// lowerIf if-converts a conditional: both branches are lowered inline with
// the appropriate predicate attached to their effectful operations, and SSA
// slots written in either branch are merged with selects afterwards.
func (lw *lowerer) lowerIf(g *gctx, st *minic.IfStmt) error {
	cond, err := lw.lowerExpr(g, st.Cond)
	if err != nil {
		return err
	}
	outerPred := g.pred
	outerWrites := g.writes
	andPred := func(p *ir.Node) *ir.Node {
		if outerPred == nil {
			return p
		}
		return g.b.Bin(ir.OpAnd, outerPred, p)
	}

	// Snapshot the SSA state: any slot legally writable here already has a
	// value in g.local (declared in this graph, or installed as a carry at
	// graph entry).
	pre := slices.Clone(g.local)

	// branch lowers one arm under predicate p and returns the values it
	// leaves in the slots that existed before it, restoring those; merged
	// collects the slots in first-write order, so the selects below are
	// emitted in a fixed order.
	merged := make([]*slot, 0, 8)
	branch := func(b *minic.BlockStmt, p *ir.Node) ([]*ir.Node, error) {
		g.writes = []*slot{}
		g.pred = p
		if err := lw.lowerBlock(g, b); err != nil {
			return nil, err
		}
		vals := make([]*ir.Node, len(pre))
		for _, sl := range g.writes {
			prev := nodeAt(pre, sl)
			if prev == nil || vals[sl.idx] != nil {
				// No prev: declared within the branch (e.g. a loop
				// counter), it dies with the branch scope and needs no
				// merge.
				continue
			}
			vals[sl.idx] = g.local[sl.idx]
			g.local[sl.idx] = prev
			if !slices.Contains(merged, sl) {
				merged = append(merged, sl)
			}
		}
		return vals, nil
	}
	thenVals, err := branch(st.Then, andPred(cond))
	if err != nil {
		return err
	}
	var elseVals []*ir.Node
	if st.Else != nil {
		if elseVals, err = branch(st.Else, andPred(g.b.Not(cond))); err != nil {
			return err
		}
	}

	g.pred = outerPred
	g.writes = outerWrites

	// Merge: slot -> select(cond, thenVal|pre, elseVal|pre).
	for _, sl := range merged {
		tv := nodeAt(thenVals, sl)
		if tv == nil {
			tv = pre[sl.idx]
		}
		ev := nodeAt(elseVals, sl)
		if ev == nil {
			ev = pre[sl.idx]
		}
		if tv == ev {
			continue
		}
		g.write(sl, g.b.Select(cond, tv, ev))
	}
	return nil
}

// lowerCritical lowers an OpenMP critical section to a hardware-semaphore
// acquire, the body, and a release. All unnamed criticals share semaphore 0
// (OpenMP semantics). Lock and unlock are full fences: the memory
// operations of the protected body may not be reordered across them.
func (lw *lowerer) lowerCritical(g *gctx, st *minic.CriticalStmt) error {
	if lw.k.NumSems == 0 {
		lw.k.NumSems = 1
	}
	lock := g.b.Lock(0)
	lock.Pred = g.pred
	lw.attachFence(g, lock)
	if err := lw.lowerBlock(g, st.Body); err != nil {
		return err
	}
	unlock := g.b.Unlock(0)
	unlock.Pred = g.pred
	lw.attachFence(g, unlock)
	return nil
}

// --- Effect ordering ---

// attachMem orders a load/store against conflicting earlier operations:
// stores wait for all prior accesses to the same array; loads wait for the
// last prior store to the same array. Everything waits for the last fence.
func (lw *lowerer) attachMem(g *gctx, n *ir.Node, isStore bool) {
	e := &g.eff
	a := e.at(slices.Index(lw.arrays, n.Arr))
	add := func(d *ir.Node) {
		if d != nil && d != n {
			n.EffectDeps = append(n.EffectDeps, d)
		}
	}
	add(e.lastFence)
	add(e.lastStore[a])
	if isStore {
		for _, ld := range e.loadsSince[a] {
			add(ld)
		}
		e.lastStore[a] = n
		e.loadsSince[a] = e.loadsSince[a][:0]
		mark(&g.stores, a)
	} else {
		e.loadsSince[a] = append(e.loadsSince[a], n)
		mark(&g.reads, a)
	}
	e.sinceFence = append(e.sinceFence, n)
}

// attachFence orders a lock/unlock/barrier after every effectful operation
// issued since the previous fence and makes later effects wait for it.
func (lw *lowerer) attachFence(g *gctx, n *ir.Node) {
	e := &g.eff
	if e.lastFence != nil {
		n.EffectDeps = append(n.EffectDeps, e.lastFence)
	}
	n.EffectDeps = append(n.EffectDeps, e.sinceFence...)
	e.lastFence = n
	e.sinceFence = e.sinceFence[:0]
	clear(e.lastStore)
	for a := range e.loadsSince {
		e.loadsSince[a] = e.loadsSince[a][:0]
	}
	g.sync = true
}

// attachLoop orders a nested loop like a combined access to every array its
// body touches; bodies containing synchronization act as fences. The loop's
// summary joins g's.
func (lw *lowerer) attachLoop(g *gctx, n *ir.Node, sub *gctx) {
	for a := range sub.reads {
		if sub.reads[a] {
			mark(&g.reads, a)
		}
	}
	for a := range sub.stores {
		if sub.stores[a] {
			mark(&g.stores, a)
		}
	}
	if sub.sync {
		lw.attachFence(g, n)
		return
	}
	e := &g.eff
	add := func(d *ir.Node) {
		if d != nil && d != n {
			n.EffectDeps = append(n.EffectDeps, d)
		}
	}
	add(e.lastFence)
	// Key order gives the dependences a fixed order.
	has := func(set []bool, a int) bool { return a < len(set) && set[a] }
	for _, a := range lw.byKey {
		if !has(sub.stores, a) {
			continue
		}
		add(e.lastStore[e.at(a)])
		for _, ld := range e.loadsSince[a] {
			add(ld)
		}
		e.lastStore[a] = n
		e.loadsSince[a] = e.loadsSince[a][:0]
	}
	for _, a := range lw.byKey {
		if !has(sub.reads, a) || has(sub.stores, a) {
			continue
		}
		add(e.lastStore[e.at(a)])
		e.loadsSince[a] = append(e.loadsSince[a], n)
	}
	e.sinceFence = append(e.sinceFence, n)
}
