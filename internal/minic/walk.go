package minic

// This file is the one generic traversal of the AST. Code that only
// collects or searches (every identifier, every loop, every assignment
// target) passes a callback to Inspect; only code that gives each node
// type its own meaning (printer, sema, lowering, the abstract and affine
// evaluators) needs a type switch of its own.

// Node is what Inspect visits: any Stmt or Expr.
type Node any

// Inspect walks the tree rooted at n, calling f for each node before its
// children; when f returns false the children are skipped. Children come
// in source order, except that a for statement's post clauses follow its
// body, as they do at run time. Nil roots and absent optional children
// are not visited.
func Inspect(n Node, f func(Node) bool) {
	if b, isBlock := n.(*BlockStmt); n == nil || isBlock && b == nil {
		return
	}
	inspect(n, f)
}

// inspect recurses through EachChild with a closure that stays on the
// stack, so a walk allocates nothing of its own.
func inspect(n Node, f func(Node) bool) {
	if f(n) {
		EachChild(n, func(c Node) { inspect(c, f) })
	}
}

// EachChild calls f on each direct child of n, in Inspect's order. It is
// the single place that knows which fields of which node hold sub-nodes.
// A target region's map-clause sections come before its body.
func EachChild(n Node, f func(Node)) {
	switch x := n.(type) {
	case *BlockStmt:
		for _, s := range x.Stmts {
			f(s)
		}
	case *DeclStmt:
		exprs(f, x.Init)
	case *ExprStmt:
		exprs(f, x.X)
	case *ForStmt:
		for _, s := range x.Init {
			f(s)
		}
		exprs(f, x.Cond)
		block(f, x.Body)
		for _, s := range x.Post {
			f(s)
		}
	case *IfStmt:
		exprs(f, x.Cond)
		block(f, x.Then)
		block(f, x.Else)
	case *ReturnStmt:
		exprs(f, x.X)
	case *CriticalStmt:
		block(f, x.Body)
	case *TargetStmt:
		for i := range x.Maps {
			exprs(f, x.Maps[i].Low, x.Maps[i].Len)
		}
		block(f, x.Body)
	case *Binary:
		exprs(f, x.L, x.R)
	case *Unary:
		exprs(f, x.X)
	case *Cond:
		exprs(f, x.C, x.A, x.B)
	case *Index:
		exprs(f, x.Base)
		exprs(f, x.Idx...)
	case *VecElem:
		exprs(f, x.Vec, x.Idx)
	case *VecLoad:
		exprs(f, x.Base, x.Idx)
	case *AssignExpr:
		exprs(f, x.LHS, x.RHS)
	case *IncDec:
		exprs(f, x.X)
	case *Call:
		exprs(f, x.Args...)
	case *Cast:
		exprs(f, x.X)
	case *AddrOf:
		exprs(f, x.X)
	case *InitList:
		exprs(f, x.Elems...)
	}
}

func exprs(f func(Node), es ...Expr) {
	for _, e := range es {
		if e != nil {
			f(e)
		}
	}
}

func block(f func(Node), b *BlockStmt) {
	if b != nil {
		f(b)
	}
}

// Assigned returns the declarations written through a plain identifier
// (`v = e`, `v op= e`, `++v`, `--v`) anywhere under the given roots.
// Element and lane stores do not count: they change an array's or a
// vector's contents, not which value a scalar name holds.
func Assigned(roots ...Node) DeclSet {
	var s DeclSet
	for _, r := range roots {
		s.addAssigned(r)
	}
	return s
}

func (s *DeclSet) addAssigned(root Node) {
	Inspect(root, func(n Node) bool {
		if d := assignedDecl(n); d != nil {
			s.Add(d)
		}
		return true
	})
}

// DeclSet is a set of one function's declarations, a bitset indexed by
// DeclID; IDs below 64 need no allocation. A declaration sema never
// numbered is never a member.
type DeclSet struct {
	lo uint64   // IDs 0..63
	hi []uint64 // IDs 64 and up
}

// word returns the word holding d's bit (nil when d is unnumbered or,
// unless grow, beyond the stored words) and the bit's mask.
func (s *DeclSet) word(d Decl, grow bool) (*uint64, uint64) {
	id := DeclIndex(d, -1)
	for grow && id >= 64 && len(s.hi) < id/64 {
		s.hi = append(s.hi, 0)
	}
	switch {
	case id < 0 || id/64 > len(s.hi):
		return nil, 0
	case id < 64:
		return &s.lo, 1 << id
	}
	return &s.hi[id/64-1], 1 << (id % 64)
}

// Add puts d into the set.
func (s *DeclSet) Add(d Decl) {
	if w, m := s.word(d, true); w != nil {
		*w |= m
	}
}

// Has reports whether d is in the set.
func (s *DeclSet) Has(d Decl) bool {
	w, m := s.word(d, false)
	return w != nil && *w&m != 0
}

// assigns reports whether any root writes d the way Assigned counts,
// stopping at the first such write.
func assigns(d Decl, roots ...Node) bool {
	found := false
	for _, r := range roots {
		Inspect(r, func(n Node) bool {
			found = found || assignedDecl(n) == d
			return !found
		})
	}
	return found
}

// assignedDecl is the declaration n writes through a plain identifier,
// or nil.
func assignedDecl(n Node) Decl {
	var target Expr
	switch x := n.(type) {
	case *AssignExpr:
		target = x.LHS
	case *IncDec:
		target = x.X
	}
	return declOf(target)
}

// Access is one read or write of a variable that Accesses reports.
type Access struct {
	// Decl is the variable read or written: the identifier's, or the
	// array's for an element access.
	Decl Decl
	// Node is an *Ident (the whole variable), an *Index (one element),
	// a *VecLoad (a vector of elements) or, for a lane store, the
	// *VecElem whose holder (see Holder) is written.
	Node  Expr
	Write bool
	// By is the *AssignExpr or *IncDec whose target Node is, nil for a
	// plain read.
	By Expr
}

// Holder is the variable or element the access touches: Node itself, or
// for a lane store the vector that holds the lane.
func (a Access) Holder() Expr {
	if ve, ok := a.Node.(*VecElem); ok {
		return ve.Vec
	}
	return a.Node
}

// Accesses calls f for each variable read or written under e, in
// evaluation order: the right-hand side, then the target's subscripts,
// are read before the store, and `op=`, `++` and `--` read their target
// just before writing it. A lane store v[l] = e or B[i][l] = e writes the
// vector that holds the lane, a variable or an array element; a lane
// read reads its holder. Element accesses report the array, not its
// name as a separate read. It allocates nothing per access.
func Accesses(e Expr, f func(Access)) {
	switch x := e.(type) {
	case nil:
	case *Ident:
		f(Access{Decl: x.Decl, Node: x})
	case *Index, *VecLoad:
		if d := operands(x, f); d != nil {
			f(Access{Decl: d, Node: x})
		}
	case *AssignExpr:
		Accesses(x.RHS, f)
		store(x.LHS, x, x.Op != nil, f)
	case *IncDec:
		store(x.X, x, true, f)
	default:
		EachChild(e, func(c Node) { Accesses(c.(Expr), f) })
	}
}

// store reports a write of target by the assignment or step by, after
// the reads that locate the target and, when rmw, the read of its old
// value.
func store(target, by Expr, rmw bool, f func(Access)) {
	d := operands(target, f)
	if d == nil {
		return
	}
	if rmw {
		f(Access{Decl: d, Node: target, By: by})
	}
	f(Access{Decl: d, Node: target, Write: true, By: by})
}

// operands reports the reads that locate an access node (subscripts, a
// base that is not a variable) and returns the variable the node
// touches, or nil when it is not one: such a node is read as a whole.
func operands(e Expr, f func(Access)) Decl {
	switch x := e.(type) {
	case *Ident:
		return x.Decl
	case *Index:
		for _, i := range x.Idx {
			Accesses(i, f)
		}
		return baseDecl(x.Base, f)
	case *VecLoad:
		Accesses(x.Idx, f)
		return baseDecl(x.Base, f)
	case *VecElem:
		d := operands(x.Vec, f)
		Accesses(x.Idx, f)
		return d
	}
	Accesses(e, f)
	return nil
}

func baseDecl(base Expr, f func(Access)) Decl {
	if id, ok := base.(*Ident); ok {
		return id.Decl
	}
	Accesses(base, f)
	return nil
}
