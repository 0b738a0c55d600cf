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
func Assigned(roots ...Node) map[Decl]bool {
	out := map[Decl]bool{}
	for _, r := range roots {
		Inspect(r, func(n Node) bool {
			if d := assignedDecl(n); d != nil {
				out[d] = true
			}
			return true
		})
	}
	return out
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
