// Package lower translates a type-checked MiniC program into the dataflow
// IR consumed by the scheduler and simulator. It performs the classic HLS
// frontend duties: SSA construction for scalars, if-conversion
// (predication), loop-nest extraction (each loop body becomes its own
// dataflow graph embedded as a variable-latency node in its parent), loop
// unrolling, memory-dependence edges, and OpenMP construct lowering
// (critical sections to hardware-semaphore lock/unlock pairs, map clauses
// to host transfer descriptors).
package lower

import (
	"fmt"
	"slices"
	"strings"

	"paravis/internal/ir"
	"paravis/internal/minic"
	"paravis/internal/slab"
)

// Error is a lowering error.
type Error struct {
	Pos minic.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lower finds the unique target region in prog and lowers it to a kernel.
// It validates the kernel it returns (ir.Validate): the build path's one
// IR check, which schedule.Build and hw.Compile rely on.
func Lower(prog *minic.Program) (*ir.Kernel, error) {
	fn, ts, err := minic.FindTarget(prog)
	if err != nil {
		return nil, err
	}
	lw := &lowerer{
		prog: prog,
		fn:   fn,
		ts:   ts,
		k: &ir.Kernel{
			Name:       fn.Name,
			NumThreads: ts.NumThreads,
		},
		slots:   make([]*slot, fn.NumDecls),
		localBy: make([]*ir.ArrayRef, fn.NumDecls),
		nodes:   new(ir.Alloc),
	}
	if lw.k.NumThreads == 0 {
		lw.k.NumThreads = 1
	}
	if err := lw.run(); err != nil {
		return nil, err
	}
	if err := ir.Validate(lw.k); err != nil {
		return nil, fmt.Errorf("lower: produced invalid IR: %w", err)
	}
	return lw.k, nil
}

// storage classifies how a variable is realized in the accelerator.
type storage int

const (
	stSSA          storage = iota // scalar/vector register (SSA value)
	stGlobalArr                   // mapped external-DRAM array (pointer param)
	stLocalArr                    // per-thread BRAM array
	stScalarGlobal                // from/tofrom-mapped scalar: 1-element DRAM buffer
	stScalarParam                 // to-mapped or firstprivate scalar: kernel argument
)

// slot is one resolved variable; idx indexes gctx.local.
type slot struct {
	name string
	typ  *minic.Type
	st   storage
	arr  *ir.ArrayRef // arrays and scalar globals
	idx  int
}

// effState tracks memory/synchronization ordering within one graph. Its
// per-array tables are indexed by the lowerer's array ID (lw.arrays).
type effState struct {
	lastFence  *ir.Node
	lastStore  []*ir.Node
	loadsSince [][]*ir.Node
	sinceFence []*ir.Node
}

// at grows the per-array tables to cover array a and returns it.
func (e *effState) at(a int) int {
	e.lastStore, e.loadsSince = grown(e.lastStore, a+1), grown(e.loadsSince, a+1)
	return a
}

// grown returns s with zero values appended to at least n entries.
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, max(n, 2*len(s)+8)-len(s))...)
}

// gctx is the lowering context of one graph (loop body or top region).
type gctx struct {
	parent *gctx
	b      *ir.Builder
	// local holds each slot's current SSA node within this graph, nil
	// for none (carry reads at entry, live-in reads on demand, updated
	// on writes), indexed by slot.idx.
	local []*ir.Node
	// liveArgs are the parent-graph nodes feeding this graph's live-ins,
	// in live-in index order.
	liveArgs []*ir.Node
	// carried lists the slots carried across iterations, in carry index
	// order; carryInits are the parent-side initial values.
	carried    []*slot
	carryInits []*ir.Node
	// pred is the current if-conversion predicate (nil = unconditional).
	pred *ir.Node
	// writes journals slot writes, in order, while a branch is being
	// lowered (nil otherwise).
	writes []*slot
	eff    effState
	// reads, stores and sync summarize the graph, nested loops
	// included: the arrays (by ID) it loads and stores, and whether it
	// synchronizes. attachLoop orders the graph's loop node by them.
	reads, stores []bool
	sync          bool
}

// nodeAt is vals' entry for s, nil when it has none.
func nodeAt(vals []*ir.Node, s *slot) *ir.Node {
	if s.idx < len(vals) {
		return vals[s.idx]
	}
	return nil
}

// mark adds array a to set.
func mark(set *[]bool, a int) {
	*set = grown(*set, a+1)
	(*set)[a] = true
}

// read returns the current value of an SSA slot in this graph,
// materializing live-in chains through parent graphs on demand.
func (g *gctx) read(s *slot) (*ir.Node, error) {
	if n := nodeAt(g.local, s); n != nil {
		return n, nil
	}
	if g.parent == nil {
		return nil, fmt.Errorf("internal: slot %q has no value in top graph", s.name)
	}
	pn, err := g.parent.read(s)
	if err != nil {
		return nil, err
	}
	kind, lanes := irKind(s.typ)
	li := g.b.LiveIn(len(g.liveArgs), kind, lanes)
	g.liveArgs = append(g.liveArgs, pn)
	g.set(s, li)
	return li, nil
}

func (g *gctx) set(s *slot, n *ir.Node) {
	g.local = grown(g.local, s.idx+1)
	g.local[s.idx] = n
}

// write updates the SSA value of a slot in this graph.
func (g *gctx) write(s *slot, n *ir.Node) {
	g.set(s, n)
	if g.writes != nil {
		g.writes = append(g.writes, s)
	}
}

// irKind maps a MiniC type to an IR value kind.
func irKind(t *minic.Type) (ir.ValKind, int) {
	switch {
	case t.IsVector():
		return ir.KindVec, t.Lanes
	case t.IsScalar() && t.Basic == minic.Float:
		return ir.KindFloat, 0
	default:
		return ir.KindInt, 0
	}
}

type lowerer struct {
	prog *minic.Program
	fn   *minic.FuncDecl
	ts   *minic.TargetStmt
	k    *ir.Kernel

	// nodes outlives the lowerer: every graph's builder keeps it.
	nodes       *ir.Alloc
	nextGraphID int

	// slots binds each declaration sema resolved an identifier or map
	// clause to, indexed by DeclID. A declaration lowered again (an
	// unrolled replica of a loop body) is rebound to a fresh slot.
	// localBy is a local array declaration's BRAM buffer.
	slots    []*slot
	localBy  []*ir.ArrayRef
	slotSlab slab.Of[slot]
	nslots   int
	free     []minic.Decl // lowerFor's scratch

	// arrays are the kernel's arrays by ID, keys their effect-ordering
	// keys and byKey the IDs in key order.
	arrays []*ir.ArrayRef
	keys   []string
	byKey  []int
}

// slot returns d's slot, nil when d has none.
func (lw *lowerer) slot(d minic.Decl) *slot {
	if id := minic.DeclIndex(d, len(lw.slots)); id >= 0 {
		return lw.slots[id]
	}
	return nil
}

// bind gives d a fresh slot.
func (lw *lowerer) bind(d minic.Decl, name string, typ *minic.Type, st storage, arr *ir.ArrayRef) *slot {
	sl := lw.slotSlab.New(slot{name: name, typ: typ, st: st, arr: arr, idx: lw.nslots})
	lw.nslots++
	if id := minic.DeclIndex(d, len(lw.slots)); id >= 0 {
		lw.slots[id] = sl
	}
	return sl
}

// newArray registers an array under the next array ID.
func (lw *lowerer) newArray(a *ir.ArrayRef) *ir.ArrayRef {
	key := "ext:" + a.Name
	if a.Space == ir.SpaceLocal {
		key = fmt.Sprintf("local:%d", a.LocalID)
	}
	at, _ := slices.BinarySearchFunc(lw.byKey, key, func(id int, k string) int { return strings.Compare(lw.keys[id], k) })
	lw.byKey = slices.Insert(lw.byKey, at, len(lw.arrays))
	lw.arrays, lw.keys = append(lw.arrays, a), append(lw.keys, key)
	return a
}

func (lw *lowerer) errf(p minic.Pos, format string, args ...any) error {
	return &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

func (lw *lowerer) run() error {
	if err := lw.bindParamsAndMaps(); err != nil {
		return err
	}

	top := lw.newGctx(nil, "top")
	if err := lw.lowerBlock(top, lw.ts.Body); err != nil {
		return err
	}
	lw.k.Top = top.b.Graph()
	lw.k.Top.Cond = nil
	return nil
}

func (lw *lowerer) newGctx(parent *gctx, name string) *gctx {
	b := ir.NewBuilder(lw.nextGraphID, name, lw.nodes)
	lw.nextGraphID++
	return &gctx{parent: parent, b: b}
}

// bindParamsAndMaps resolves the kernel interface: function parameters, map
// clauses and captured host locals.
func (lw *lowerer) bindParamsAndMaps() error {
	lw.k.VectorLanes = lw.vectorLanes()

	mapped := make([]*minic.MapClause, len(lw.slots))
	for i := range lw.ts.Maps {
		mc := &lw.ts.Maps[i]
		if minic.DeclIndex(mc.Decl, len(lw.slots)) < 0 {
			return lw.errf(mc.Pos, "mapped variable %s is not visible at the target region", mc.Name)
		}
		if mapped[mc.Decl.DeclID()] != nil {
			return lw.errf(mc.Pos, "variable %s mapped twice", mc.Name)
		}
		mapped[mc.Decl.DeclID()] = mc
	}

	// Pointer parameters must be mapped.
	for _, prm := range lw.fn.Params {
		if prm.Type.IsPointer() {
			mc := mapped[prm.DeclID()]
			if mc == nil {
				// Unmapped pointers are simply not available in the region.
				continue
			}
			dir, err := mapDir(mc.Dir)
			if err != nil {
				return lw.errf(mc.Pos, "%v", err)
			}
			low, err := lw.scalarExpr(mc.Low)
			if err != nil {
				return err
			}
			length, err := lw.scalarExpr(mc.Len)
			if err != nil {
				return err
			}
			lw.k.Params = append(lw.k.Params, ir.Param{Name: prm.Name, Pointer: true})
			lw.k.Maps = append(lw.k.Maps, ir.Map{Dir: dir, Name: prm.Name, Low: low, Len: length})
			elemWords := 1
			arr := lw.newArray(&ir.ArrayRef{Space: ir.SpaceExternal, Name: prm.Name, ElemWords: elemWords})
			lw.bind(prm, prm.Name, prm.Type, stGlobalArr, arr)
		}
	}

	// Remaining map clauses are scalars (host locals or scalar params).
	for i := range lw.ts.Maps {
		mc := &lw.ts.Maps[i]
		if lw.slot(mc.Decl) != nil {
			continue // a pointer parameter, bound above
		}
		name, t := mc.Name, mc.Decl.DeclType()
		if !t.IsScalar() {
			return lw.errf(mc.Pos, "mapped variable %s has unsupported type %s", name, t)
		}
		dir, err := mapDir(mc.Dir)
		if err != nil {
			return lw.errf(mc.Pos, "%v", err)
		}
		isFloat := t.Basic == minic.Float
		if dir == ir.MapTo {
			// Firstprivate-style: a scalar kernel argument.
			lw.k.Params = append(lw.k.Params, ir.Param{Name: name, Float: isFloat})
			lw.k.Maps = append(lw.k.Maps, ir.Map{Dir: dir, Name: name, Scalar: true, Float: isFloat})
			lw.bind(mc.Decl, name, t, stScalarParam, nil)
		} else {
			// from/tofrom scalars live in a one-element DRAM buffer so all
			// threads share them and the host reads the result back.
			arr := lw.newArray(&ir.ArrayRef{Space: ir.SpaceExternal, Name: name, ElemWords: 1})
			lw.k.Params = append(lw.k.Params, ir.Param{Name: name, Pointer: true})
			lw.k.Maps = append(lw.k.Maps, ir.Map{Dir: dir, Name: name, Scalar: true, Float: isFloat})
			lw.bind(mc.Decl, name, t, stScalarGlobal, arr)
		}
	}

	// Scalar function parameters referenced inside the region are
	// implicitly firstprivate (OpenMP default for scalars). A parameter
	// whose name a mapped variable already gives the kernel is mapped
	// itself, or shadowed by the mapped local and so not visible.
	taken := make(map[string]bool, len(lw.k.Params))
	for _, p := range lw.k.Params {
		taken[p.Name] = true
	}
	for _, prm := range lw.fn.Params {
		if prm.Type.IsScalar() && !taken[prm.Name] {
			lw.k.Params = append(lw.k.Params, ir.Param{Name: prm.Name, Float: prm.Type.Basic == minic.Float})
			lw.bind(prm, prm.Name, prm.Type, stScalarParam, nil)
		}
	}
	return nil
}

// vectorLanes is the lane count of the first vector the region declares
// (a vector or an array of vectors), 4 when it declares none.
func (lw *lowerer) vectorLanes() int {
	lanes := 0
	minic.Inspect(lw.ts.Body, func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok {
			t := d.Typ
			if t.IsArray() {
				t = t.Elem
			}
			if t.IsVector() {
				lanes = t.Lanes
			}
		}
		return lanes == 0
	})
	if lanes == 0 {
		return 4
	}
	return lanes
}

func mapDir(d minic.MapDir) (ir.MapDir, error) {
	switch d {
	case minic.MapTo:
		return ir.MapTo, nil
	case minic.MapFrom:
		return ir.MapFrom, nil
	case minic.MapToFrom:
		return ir.MapToFrom, nil
	}
	return 0, fmt.Errorf("unknown map direction %v", d)
}

// scalarExpr lowers a map-clause size expression to a host-evaluated
// ScalarExpr over the function's scalar arguments.
func (lw *lowerer) scalarExpr(e minic.Expr) (ir.ScalarExpr, error) {
	switch x := e.(type) {
	case *minic.IntLit:
		return ir.ConstExpr(x.Value), nil
	case *minic.Ident:
		return ir.ParamExpr(x.Name), nil
	case *minic.Binary:
		l, err := lw.scalarExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := lw.scalarExpr(x.R)
		if err != nil {
			return nil, err
		}
		var op ir.Op
		switch x.Op {
		case minic.OpAdd:
			op = ir.OpAdd
		case minic.OpSub:
			op = ir.OpSub
		case minic.OpMul:
			op = ir.OpMul
		case minic.OpDiv:
			op = ir.OpDiv
		case minic.OpRem:
			op = ir.OpRem
		default:
			return nil, lw.errf(x.Pos, "unsupported operator %s in map size expression", x.Op)
		}
		return &ir.BinExpr{Op: op, L: l, R: r}, nil
	case *minic.Cast:
		return lw.scalarExpr(x.X)
	}
	return nil, lw.errf(minic.ExprPos(e), "unsupported map size expression %T", e)
}
