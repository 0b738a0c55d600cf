package transform

import (
	"fmt"

	"paravis/internal/minic"
)

// --- AST builders -----------------------------------------------------
//
// Constructed nodes carry no positions and no types: the pass output is
// printed and re-parsed, so the ordinary parser/sema pipeline re-derives
// both for the emitted source.

func id(name string) *minic.Ident { return &minic.Ident{Name: name} }
func lit(v int64) *minic.IntLit   { return &minic.IntLit{Value: v} }
func bin(op minic.BinOp, l, r minic.Expr) *minic.Binary {
	return &minic.Binary{Op: op, L: l, R: r}
}
func add(l, r minic.Expr) minic.Expr { return simplify(bin(minic.OpAdd, l, r)) }
func mul(l, r minic.Expr) minic.Expr { return simplify(bin(minic.OpMul, l, r)) }
func lt(l, r minic.Expr) minic.Expr  { return bin(minic.OpLt, l, r) }

func index(base string, idx ...minic.Expr) *minic.Index {
	return &minic.Index{Base: id(base), Idx: idx}
}

func exprStmt(e minic.Expr) *minic.ExprStmt { return &minic.ExprStmt{X: e} }

func assign(lhs, rhs minic.Expr) *minic.ExprStmt {
	return exprStmt(&minic.AssignExpr{LHS: lhs, RHS: rhs})
}

func addAssign(lhs, rhs minic.Expr) *minic.ExprStmt {
	op := minic.OpAdd
	return exprStmt(&minic.AssignExpr{LHS: lhs, Op: &op, RHS: rhs})
}

func declInt(name string, init minic.Expr) *minic.DeclStmt {
	return &minic.DeclStmt{Name: name, Typ: minic.TypeInt(), Init: init}
}

func block(stmts ...minic.Stmt) *minic.BlockStmt { return &minic.BlockStmt{Stmts: stmts} }

// stdFor builds `for (int v = init; v < bound; v += step)` (with ++v for
// step 1), the canonical counted-loop shape of the seed kernels.
func stdFor(v string, init, bound minic.Expr, step int64, body ...minic.Stmt) *minic.ForStmt {
	var post minic.Stmt
	if step == 1 {
		post = exprStmt(&minic.IncDec{X: id(v), Inc: true})
	} else {
		op := minic.OpAdd
		post = exprStmt(&minic.AssignExpr{LHS: id(v), Op: &op, RHS: lit(step)})
	}
	return &minic.ForStmt{
		Init: []minic.Stmt{declInt(v, init)},
		Cond: lt(id(v), bound),
		Post: []minic.Stmt{post},
		Body: block(body...),
	}
}

// --- Cloning with substitution ----------------------------------------

// subst maps identifier names to replacement-expression factories. Each
// substitution site gets a fresh clone so rewrites never share nodes.
type subst map[string]func() minic.Expr

func (s subst) with(name string, e minic.Expr) subst {
	out := subst{}
	for k, v := range s {
		out[k] = v
	}
	out[name] = func() minic.Expr { return cloneExpr(e, nil) }
	return out
}

func cloneExpr(e minic.Expr, s subst) minic.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *minic.Ident:
		if s != nil {
			if f, ok := s[x.Name]; ok {
				return f()
			}
		}
		return id(x.Name)
	case *minic.IntLit:
		return lit(x.Value)
	case *minic.FloatLit:
		return &minic.FloatLit{Value: x.Value}
	case *minic.Binary:
		return simplify(bin(x.Op, cloneExpr(x.L, s), cloneExpr(x.R, s)))
	case *minic.Unary:
		return &minic.Unary{Neg: x.Neg, X: cloneExpr(x.X, s)}
	case *minic.Cond:
		return &minic.Cond{C: cloneExpr(x.C, s), A: cloneExpr(x.A, s), B: cloneExpr(x.B, s)}
	case *minic.Index:
		out := &minic.Index{Base: cloneExpr(x.Base, s)}
		for _, i := range x.Idx {
			out.Idx = append(out.Idx, cloneExpr(i, s))
		}
		return out
	case *minic.VecElem:
		return &minic.VecElem{Vec: cloneExpr(x.Vec, s), Idx: cloneExpr(x.Idx, s)}
	case *minic.VecLoad:
		return &minic.VecLoad{Base: cloneExpr(x.Base, s), Idx: cloneExpr(x.Idx, s)}
	case *minic.AssignExpr:
		out := &minic.AssignExpr{LHS: cloneExpr(x.LHS, s), RHS: cloneExpr(x.RHS, s)}
		if x.Op != nil {
			op := *x.Op
			out.Op = &op
		}
		return out
	case *minic.IncDec:
		return &minic.IncDec{X: cloneExpr(x.X, s), Inc: x.Inc}
	case *minic.Call:
		out := &minic.Call{Name: x.Name}
		for _, a := range x.Args {
			out.Args = append(out.Args, cloneExpr(a, s))
		}
		return out
	case *minic.Cast:
		return &minic.Cast{To: x.To, X: cloneExpr(x.X, s)}
	case *minic.AddrOf:
		return &minic.AddrOf{X: cloneExpr(x.X, s)}
	case *minic.InitList:
		out := &minic.InitList{}
		for _, el := range x.Elems {
			out.Elems = append(out.Elems, cloneExpr(el, s))
		}
		return out
	}
	panic(fmt.Sprintf("transform: cloneExpr: unhandled %T", e))
}

func cloneStmt(st minic.Stmt, s subst) minic.Stmt {
	switch x := st.(type) {
	case nil:
		return nil
	case *minic.BlockStmt:
		out := &minic.BlockStmt{}
		for _, in := range x.Stmts {
			out.Stmts = append(out.Stmts, cloneStmt(in, s))
		}
		return out
	case *minic.DeclStmt:
		return &minic.DeclStmt{Name: x.Name, Typ: x.Typ, Init: cloneExpr(x.Init, s)}
	case *minic.ExprStmt:
		return exprStmt(cloneExpr(x.X, s))
	case *minic.ForStmt:
		out := &minic.ForStmt{Cond: cloneExpr(x.Cond, s), Unroll: x.Unroll}
		for _, in := range x.Init {
			out.Init = append(out.Init, cloneStmt(in, s))
		}
		for _, ps := range x.Post {
			out.Post = append(out.Post, cloneStmt(ps, s))
		}
		out.Body = cloneStmt(x.Body, s).(*minic.BlockStmt)
		return out
	case *minic.IfStmt:
		out := &minic.IfStmt{Cond: cloneExpr(x.Cond, s)}
		out.Then = cloneStmt(x.Then, s).(*minic.BlockStmt)
		if x.Else != nil {
			out.Else = cloneStmt(x.Else, s).(*minic.BlockStmt)
		}
		return out
	case *minic.ReturnStmt:
		return &minic.ReturnStmt{X: cloneExpr(x.X, s)}
	case *minic.CriticalStmt:
		return &minic.CriticalStmt{Body: cloneStmt(x.Body, s).(*minic.BlockStmt)}
	case *minic.BarrierStmt:
		return &minic.BarrierStmt{}
	}
	panic(fmt.Sprintf("transform: cloneStmt: unhandled %T", st))
}

// simplify folds constant integer arithmetic and strips additive/
// multiplicative identities so substituted subscripts print in the same
// shape a human would write (k := 0 turns `(k + m) * D` into `m * D`).
func simplify(e minic.Expr) minic.Expr {
	b, ok := e.(*minic.Binary)
	if !ok {
		return e
	}
	li, lconst := b.L.(*minic.IntLit)
	ri, rconst := b.R.(*minic.IntLit)
	if lconst && rconst {
		switch b.Op {
		case minic.OpAdd:
			return lit(li.Value + ri.Value)
		case minic.OpSub:
			return lit(li.Value - ri.Value)
		case minic.OpMul:
			return lit(li.Value * ri.Value)
		}
	}
	switch b.Op {
	case minic.OpAdd:
		if lconst && li.Value == 0 {
			return b.R
		}
		if rconst && ri.Value == 0 {
			return b.L
		}
		// Left-normalize sums so substituted offsets print the way a
		// human writes them: a + (b + c) → (a + b) + c, i.e.
		// "k + 8 + v" instead of "(k + 8) + v".
		if r, ok := b.R.(*minic.Binary); ok && r.Op == minic.OpAdd {
			return simplify(bin(minic.OpAdd, simplify(bin(minic.OpAdd, b.L, r.L)), r.R))
		}
	case minic.OpMul:
		if lconst && li.Value == 1 {
			return b.R
		}
		if rconst && ri.Value == 1 {
			return b.L
		}
		if (lconst && li.Value == 0) || (rconst && ri.Value == 0) {
			return lit(0)
		}
	}
	return b
}

// --- Structural queries ------------------------------------------------

// exprEq is the matchers' structural-equality oracle: two expressions are
// equal when their canonical printed forms coincide.
func exprEq(a, b minic.Expr) bool { return minic.PrintExpr(a) == minic.PrintExpr(b) }

// flattenAdd splits a left-associated sum into its terms. Subtrahends
// stop the flattening (the matchers only deal in sums of products).
func flattenAdd(e minic.Expr) []minic.Expr {
	if b, ok := e.(*minic.Binary); ok && b.Op == minic.OpAdd {
		return append(flattenAdd(b.L), flattenAdd(b.R)...)
	}
	return []minic.Expr{e}
}

// foldEnv is the fold environment of fn: the launch values of the
// parameters fn never assigns. A parameter fn writes holds its launch
// value only up to the write, so it does not fold anywhere.
func foldEnv(fn *minic.FuncDecl, params map[string]int64) map[string]int64 {
	assigned := minic.Assigned(fn.Body)
	env := make(map[string]int64, len(params))
	for _, p := range fn.Params {
		if v, ok := params[p.Name]; ok && !assigned[p] {
			env[p.Name] = v
		}
	}
	return env
}

// foldConst evaluates an expression to an integer constant, resolving
// identifiers bound to a parameter through env (foldEnv's launch
// values); a local that shadows a parameter does not fold.
func foldConst(e minic.Expr, env map[string]int64) (int64, bool) {
	switch x := e.(type) {
	case *minic.IntLit:
		return x.Value, true
	case *minic.Ident:
		if _, ok := x.Decl.(*minic.Param); !ok {
			return 0, false
		}
		v, ok := env[x.Name]
		return v, ok
	case *minic.Unary:
		v, ok := foldConst(x.X, env)
		if !ok {
			return 0, false
		}
		if x.Neg {
			return -v, true
		}
		if v == 0 {
			return 1, true
		}
		return 0, true
	case *minic.Binary:
		l, ok1 := foldConst(x.L, env)
		r, ok2 := foldConst(x.R, env)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case minic.OpAdd:
			return l + r, true
		case minic.OpSub:
			return l - r, true
		case minic.OpMul:
			return l * r, true
		case minic.OpDiv:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case minic.OpRem:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// isZeroLit recognizes the zero initializers of the seed kernels: 0,
// 0.0f, and the (float)0 coercion sema inserts.
func isZeroLit(e minic.Expr) bool {
	switch x := e.(type) {
	case *minic.IntLit:
		return x.Value == 0
	case *minic.FloatLit:
		return x.Value == 0
	case *minic.Cast:
		return isZeroLit(x.X)
	}
	return false
}

// --- Loop discovery ----------------------------------------------------

// forsUnder collects every for statement under n (n itself included) in
// source (pre-)order.
func forsUnder(n minic.Node) []*minic.ForStmt {
	var out []*minic.ForStmt
	minic.Inspect(n, func(c minic.Node) bool {
		if f, ok := c.(*minic.ForStmt); ok {
			out = append(out, f)
		}
		return true
	})
	return out
}

func findLoop(fn *minic.FuncDecl, name string) *minic.ForStmt {
	for _, l := range forsUnder(fn.Body) {
		if minic.LoopName(l) == name {
			return l
		}
	}
	return nil
}

// ownerOf finds the block whose statement list holds target and target's
// index in it; owner is nil when target is not in any list.
func ownerOf(fn *minic.FuncDecl, target minic.Stmt) (owner *minic.BlockStmt, at int) {
	minic.Inspect(fn.Body, func(n minic.Node) bool {
		if b, ok := n.(*minic.BlockStmt); ok && owner == nil {
			for i, s := range b.Stmts {
				if s == target {
					owner, at = b, i
				}
			}
		}
		return owner == nil
	})
	return owner, at
}

// splice replaces the statement at index at of b with repl.
func splice(b *minic.BlockStmt, at int, repl ...minic.Stmt) {
	out := make([]minic.Stmt, 0, len(b.Stmts)+len(repl)-1)
	out = append(out, b.Stmts[:at]...)
	out = append(out, repl...)
	b.Stmts = append(out, b.Stmts[at+1:]...)
}

// --- Name hygiene -------------------------------------------------------

// usedNames collects every identifier that appears anywhere in the
// function (declarations, parameters and uses), the conflict set for
// fresh-name generation.
func usedNames(fn *minic.FuncDecl) map[string]bool {
	used := map[string]bool{fn.Name: true}
	for _, p := range fn.Params {
		used[p.Name] = true
	}
	minic.Inspect(fn.Body, func(n minic.Node) bool {
		switch x := n.(type) {
		case *minic.Ident:
			used[x.Name] = true
		case *minic.Call:
			used[x.Name] = true
		case *minic.DeclStmt:
			used[x.Name] = true
		case *minic.TargetStmt:
			for _, m := range x.Maps {
				used[m.Name] = true
			}
		}
		return true
	})
	return used
}

// identNames collects the identifier names appearing in an expression.
func identNames(e minic.Expr) map[string]bool {
	out := map[string]bool{}
	minic.Inspect(e, func(n minic.Node) bool {
		if id, ok := n.(*minic.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}

// fresh picks base if free, else base_2, base_3, ... and records the
// choice in used.
func fresh(used map[string]bool, base string) string {
	name := base
	for n := 2; used[name]; n++ {
		name = fmt.Sprintf("%s_%d", base, n)
	}
	used[name] = true
	return name
}
