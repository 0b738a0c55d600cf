package staticcheck

import (
	"paravis/internal/absint"
	"paravis/internal/minic"
)

// checkUnused reports locals that are never referenced. Parameters are
// exempt (they document the call signature even when ignored).
func checkUnused(file string, res *resolution, ds *[]Diagnostic) {
	for i := range res.decls {
		if d := &res.decls[i]; !d.isParam() && d.uses == 0 {
			*ds = append(*ds, diag(file, d.DeclPos(), RuleUnusedVar, SevWarning,
				"%q is declared but never used", d.DeclName()))
		}
	}
}

// checkUninit runs a forward may-be-uninitialized analysis over the
// tracked scalar locals of one function. Branch states are merged with
// union (may-analysis); a loop body is analyzed once with the loop-entry
// state, which is sound because statements only remove variables from the
// maybe-uninit set, and the zero-trip path keeps the entry state alive
// after the loop.
func checkUninit(file string, res *resolution, ds *[]Diagnostic) {
	maybe := map[*declInfo]bool{}
	reported := map[*declInfo]bool{}

	clone := func(m map[*declInfo]bool) map[*declInfo]bool {
		c := make(map[*declInfo]bool, len(m))
		for k, v := range m {
			c[k] = v
		}
		return c
	}

	// A store initializes its variable; a lane store counts (lane-by-lane
	// fill is a common idiom).
	readExpr := func(e minic.Expr) {
		minic.Accesses(e, func(a minic.Access) {
			d := res.info(a.Decl)
			switch {
			case d == nil:
			case a.Write:
				delete(maybe, d)
			case maybe[d] && !reported[d]:
				reported[d] = true
				*ds = append(*ds, diag(file, minic.ExprPos(a.Holder()), RuleUseBeforeInit, SevWarning,
					"%q may be read before it is initialized", d.DeclName()))
			}
		})
	}

	var doStmt func(s minic.Stmt)
	doStmt = func(s minic.Stmt) {
		switch st := s.(type) {
		case *minic.BlockStmt:
			for _, c := range st.Stmts {
				doStmt(c)
			}
		case *minic.DeclStmt:
			readExpr(st.Init)
			if d := res.info(st); d != nil && d.trackedScalar() {
				if st.Init != nil {
					delete(maybe, d)
				} else {
					maybe[d] = true
				}
			}
		case *minic.ExprStmt:
			readExpr(st.X)
		case *minic.IfStmt:
			readExpr(st.Cond)
			entry := clone(maybe)
			doStmt(st.Then)
			thenOut := maybe
			maybe = entry
			if st.Else != nil {
				doStmt(st.Else)
			}
			for d := range thenOut {
				maybe[d] = true
			}
		case *minic.ForStmt:
			for _, c := range st.Init {
				doStmt(c)
			}
			readExpr(st.Cond)
			entry := clone(maybe)
			doStmt(st.Body)
			for _, c := range st.Post {
				doStmt(c)
			}
			// Zero-trip path: the entry state survives the loop.
			maybe = entry
		case *minic.ReturnStmt:
			readExpr(st.X)
		case *minic.CriticalStmt:
			doStmt(st.Body)
		case *minic.TargetStmt:
			for i := range st.Maps {
				readExpr(st.Maps[i].Low)
				readExpr(st.Maps[i].Len)
			}
			doStmt(st.Body)
		}
	}
	doStmt(res.fn.Body)
}

// checkDeadStores runs a backward liveness analysis and reports plain
// assignments to tracked scalars whose value can never be read. Compound
// assignments, ++/--, declaration initializers, lane writes and mapped
// variables are exempt. Loops are handled conservatively: the body is
// analyzed once with every variable the loop mentions assumed live at the
// bottom (the next iteration may read it), and the pre-loop live set is
// unioned back afterwards for the zero-trip path — unless the abstract
// interpreter proved the body executes at least once per entry, in which
// case the zero-trip path is dead and a pre-loop store the body always
// overwrites becomes reportable.
func checkDeadStores(file string, res *resolution, ai *absint.Result, ds *[]Diagnostic) {
	type set = map[*declInfo]bool
	clone := func(m set) set {
		c := make(set, len(m))
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	union := func(dst, src set) {
		for k := range src {
			dst[k] = true
		}
	}
	exempt := func(d *declInfo) bool { return !d.trackedScalar() || d.inMap }
	addUses := func(n minic.Node, live set) {
		minic.Inspect(n, func(x minic.Node) bool {
			if id, ok := x.(*minic.Ident); ok {
				if d := res.info(id.Decl); d != nil {
					live[d] = true
				}
			}
			return true
		})
	}

	var backExpr func(e minic.Expr, live set)
	backExpr = func(e minic.Expr, live set) {
		as, ok := e.(*minic.AssignExpr)
		if !ok {
			addUses(e, live)
			return
		}
		if t, ok := as.LHS.(*minic.Ident); ok {
			d := res.info(t.Decl)
			if d != nil && as.Op == nil && !exempt(d) && !live[d] {
				*ds = append(*ds, diag(file, as.Pos, RuleDeadStore, SevWarning,
					"value assigned to %q is never used", d.DeclName()))
			}
			if d != nil && as.Op == nil {
				delete(live, d)
			} else if d != nil {
				live[d] = true
			}
			addUses(as.RHS, live)
			return
		}
		// Element/lane stores: the target base and indices are uses.
		addUses(as.LHS, live)
		addUses(as.RHS, live)
	}

	var back func(s minic.Stmt, live set)
	back = func(s minic.Stmt, live set) {
		switch st := s.(type) {
		case *minic.BlockStmt:
			for i := len(st.Stmts) - 1; i >= 0; i-- {
				back(st.Stmts[i], live)
			}
		case *minic.DeclStmt:
			if d := res.info(st); d != nil {
				delete(live, d)
			}
			addUses(st.Init, live)
		case *minic.ExprStmt:
			backExpr(st.X, live)
		case *minic.IfStmt:
			thenLive := clone(live)
			back(st.Then, thenLive)
			if st.Else != nil {
				back(st.Else, live)
			}
			union(live, thenLive)
			addUses(st.Cond, live)
		case *minic.ForStmt:
			entry := clone(live)
			addUses(st, live)
			for i := len(st.Post) - 1; i >= 0; i-- {
				back(st.Post[i], live)
			}
			back(st.Body, live)
			addUses(st.Cond, live)
			for i := len(st.Init) - 1; i >= 0; i-- {
				back(st.Init[i], live)
			}
			if lf := ai.Loop(st); lf == nil || !lf.Reachable ||
				!lf.Trips.HasLo || lf.Trips.Lo < 1 {
				union(live, entry)
			}
		case *minic.ReturnStmt:
			addUses(st.X, live)
		case *minic.CriticalStmt:
			back(st.Body, live)
		case *minic.TargetStmt:
			back(st.Body, live)
			for i := range st.Maps {
				addUses(st.Maps[i].Low, live)
				addUses(st.Maps[i].Len, live)
			}
		}
	}
	back(res.fn.Body, set{})
}
