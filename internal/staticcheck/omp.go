package staticcheck

import "paravis/internal/minic"

// access is one read or write of a resolved variable inside the target
// region. idx is nil for whole-object (scalar) accesses and holds the
// subscript expressions for array-element accesses.
type access struct {
	d      *declInfo
	pos    minic.Pos
	write  bool
	idx    []minic.Expr
	inCrit bool
}

// collectAccesses walks the target region and records every variable
// access with its write/critical context.
func collectAccesses(res *resolution, ts *minic.TargetStmt) []access {
	var out []access
	record := func(id *minic.Ident, pos minic.Pos, write bool, idx []minic.Expr, crit bool) {
		if d := res.info[id.Decl]; d != nil {
			out = append(out, access{d: d, pos: pos, write: write, idx: idx, inCrit: crit})
		}
	}

	var readExpr func(e minic.Expr, crit bool)
	var assign func(lhs minic.Expr, pos minic.Pos, compound bool, crit bool)
	readExpr = func(e minic.Expr, crit bool) {
		switch x := e.(type) {
		case nil:
			return
		case *minic.Ident:
			record(x, x.Pos, false, nil, crit)
		case *minic.Index:
			if b, ok := x.Base.(*minic.Ident); ok {
				record(b, x.Pos, false, x.Idx, crit)
			} else {
				readExpr(x.Base, crit)
			}
			for _, ix := range x.Idx {
				readExpr(ix, crit)
			}
		case *minic.VecLoad:
			if b, ok := x.Base.(*minic.Ident); ok {
				record(b, x.Pos, false, []minic.Expr{x.Idx}, crit)
			} else {
				readExpr(x.Base, crit)
			}
			readExpr(x.Idx, crit)
		case *minic.AssignExpr:
			readExpr(x.RHS, crit)
			assign(x.LHS, x.Pos, x.Op != nil, crit)
		case *minic.IncDec:
			assign(x.X, x.Pos, true, crit)
		default:
			minic.EachChild(e, func(sub minic.Node) { readExpr(sub.(minic.Expr), crit) })
		}
	}
	assign = func(lhs minic.Expr, pos minic.Pos, compound bool, crit bool) {
		switch t := lhs.(type) {
		case *minic.Ident:
			record(t, pos, true, nil, crit)
			if compound {
				record(t, pos, false, nil, crit)
			}
		case *minic.Index:
			if b, ok := t.Base.(*minic.Ident); ok {
				record(b, pos, true, t.Idx, crit)
				if compound {
					record(b, pos, false, t.Idx, crit)
				}
			} else {
				readExpr(t.Base, crit)
			}
			for _, ix := range t.Idx {
				readExpr(ix, crit)
			}
		case *minic.VecElem:
			switch v := t.Vec.(type) {
			case *minic.Ident:
				// Lane write into a vector variable: a read-modify-write of
				// the whole register.
				record(v, pos, true, nil, crit)
				if compound {
					record(v, pos, false, nil, crit)
				}
			case *minic.Index:
				if b, ok := v.Base.(*minic.Ident); ok {
					idx := append(append([]minic.Expr{}, v.Idx...), t.Idx)
					record(b, pos, true, idx, crit)
					if compound {
						record(b, pos, false, idx, crit)
					}
				} else {
					readExpr(v.Base, crit)
				}
				for _, ix := range v.Idx {
					readExpr(ix, crit)
				}
			default:
				readExpr(t.Vec, crit)
			}
			readExpr(t.Idx, crit)
		case *minic.VecLoad:
			if b, ok := t.Base.(*minic.Ident); ok {
				record(b, pos, true, []minic.Expr{t.Idx}, crit)
				if compound {
					record(b, pos, false, []minic.Expr{t.Idx}, crit)
				}
			} else {
				readExpr(t.Base, crit)
			}
			readExpr(t.Idx, crit)
		default:
			readExpr(lhs, crit)
		}
	}

	// Statements only carry the critical-section context down to their
	// top-level expressions; readExpr classifies from there.
	var walkS func(root minic.Node, crit bool)
	walkS = func(root minic.Node, crit bool) {
		minic.Inspect(root, func(n minic.Node) bool {
			switch x := n.(type) {
			case *minic.CriticalStmt:
				walkS(x.Body, true)
				return false
			case minic.Expr:
				readExpr(x, crit)
				return false
			}
			return true
		})
	}
	walkS(ts.Body, false)
	return out
}

// tainted reports whether e reads omp_get_thread_num() or a variable in
// the taint set.
func tainted(res *resolution, taint map[*declInfo]bool, e minic.Expr) bool {
	hit := false
	minic.Inspect(e, func(n minic.Node) bool {
		switch v := n.(type) {
		case *minic.Call:
			hit = hit || v.Name == "omp_get_thread_num"
		case *minic.Ident:
			hit = hit || taint[res.info[v.Decl]]
		}
		return !hit
	})
	return hit
}

// threadTaint computes, to a fixpoint, the set of region variables whose
// value depends on omp_get_thread_num(). Only the thread ID seeds taint:
// omp_get_num_threads() returns the same value on every thread, so
// indices derived from it alone are NOT thread-disjoint.
func threadTaint(res *resolution, ts *minic.TargetStmt) map[*declInfo]bool {
	taint := map[*declInfo]bool{}
	for {
		changed := false
		mark := func(d *declInfo) {
			if d != nil && !taint[d] {
				taint[d] = true
				changed = true
			}
		}
		minic.Inspect(ts.Body, func(n minic.Node) bool {
			switch x := n.(type) {
			case *minic.AssignExpr:
				if !tainted(res, taint, x.RHS) {
					break
				}
				switch t := x.LHS.(type) {
				case *minic.Ident:
					mark(res.info[t.Decl])
				case *minic.VecElem:
					if v, ok := t.Vec.(*minic.Ident); ok {
						mark(res.info[v.Decl])
					}
				}
			case *minic.DeclStmt:
				if tainted(res, taint, x.Init) {
					mark(res.info[x])
				}
			}
			return true
		})
		if !changed {
			return taint
		}
	}
}

// regionLocals returns the declInfos declared inside the target region
// (including for-init declarations) — per-thread private variables.
func regionLocals(res *resolution, ts *minic.TargetStmt) map[*declInfo]bool {
	local := map[*declInfo]bool{}
	minic.Inspect(ts.Body, func(n minic.Node) bool {
		if st, ok := n.(*minic.DeclStmt); ok {
			local[res.info[st]] = true
		}
		return true
	})
	return local
}

// mapClauseOf returns the map clause naming d, or nil.
func mapClauseOf(res *resolution, ts *minic.TargetStmt, d *declInfo) *minic.MapClause {
	for i := range ts.Maps {
		if res.info[ts.Maps[i].Decl] == d {
			return &ts.Maps[i]
		}
	}
	return nil
}

// checkOMP runs the omp-race and omp-map rules on one target region.
func checkOMP(file string, res *resolution, ts *minic.TargetStmt, ds *[]Diagnostic) {
	accs := collectAccesses(res, ts)
	taint := threadTaint(res, ts)
	local := regionLocals(res, ts)

	idxTainted := func(idx []minic.Expr) bool {
		for _, e := range idx {
			if tainted(res, taint, e) {
				return true
			}
		}
		return false
	}

	// omp-map: unmapped references and direction mismatches.
	type varState struct {
		written  bool
		reported bool
	}
	state := map[*declInfo]*varState{}
	st := func(d *declInfo) *varState {
		s, ok := state[d]
		if !ok {
			s = &varState{}
			state[d] = s
		}
		return s
	}
	for _, a := range accs {
		d := a.d
		if local[d] {
			continue
		}
		vs := st(d)
		if a.write {
			vs.written = true
		}
		if d.inMap {
			continue
		}
		if vs.reported {
			continue
		}
		switch {
		case d.isParam() && (d.DeclType().IsScalar() || d.DeclType().IsVector()):
			// Implicitly firstprivate; reads are fine, writes are lost.
			if a.write {
				vs.reported = true
				*ds = append(*ds, diag(file, a.pos, RuleOMPMap, SevError,
					"scalar %q is written in the target region but is firstprivate (map(to:) or implicit); the host never sees the write — map it tofrom", d.DeclName()))
			}
		case d.isParam():
			vs.reported = true
			*ds = append(*ds, diag(file, a.pos, RuleOMPMap, SevError,
				"%q is referenced in the target region but has no map clause; add map(to: %s[0:len]) or map(tofrom: %s[0:len])", d.DeclName(), d.DeclName(), d.DeclName()))
		default:
			vs.reported = true
			*ds = append(*ds, diag(file, a.pos, RuleOMPMap, SevError,
				"host variable %q is referenced in the target region but has no map clause; only scalar function parameters are implicitly firstprivate", d.DeclName()))
		}
	}
	for i := range ts.Maps {
		mc := &ts.Maps[i]
		d := res.info[mc.Decl]
		if d == nil {
			continue
		}
		vs := st(d)
		isArray := mc.Low != nil || d.DeclType().IsPointer() || d.DeclType().IsArray()
		if vs.written && mc.Dir == minic.MapTo {
			if isArray {
				*ds = append(*ds, diag(file, mc.Pos, RuleOMPMap, SevWarning,
					"%q is written in the target region but mapped 'to'; device writes are never copied back — map it tofrom", d.DeclName()))
			} else {
				*ds = append(*ds, diag(file, mc.Pos, RuleOMPMap, SevError,
					"scalar %q is written in the target region but is firstprivate (map(to:) or implicit); the host never sees the write — map it tofrom", d.DeclName()))
			}
		}
		if !vs.written && mc.Dir == minic.MapFrom {
			*ds = append(*ds, diag(file, mc.Pos, RuleOMPMap, SevWarning,
				"%q is mapped 'from' but never written in the target region; the host reads back unmodified data", d.DeclName()))
		}
	}

	// omp-race: unprotected writes to shared state in a multi-threaded
	// region. Shared = mapped arrays and from/tofrom-mapped scalars;
	// region locals and firstprivate scalars are per-thread.
	if ts.NumThreads <= 1 {
		return
	}
	raceReported := map[*declInfo]bool{}
	for _, a := range accs {
		d := a.d
		if !a.write || a.inCrit || local[d] || raceReported[d] {
			continue
		}
		mc := mapClauseOf(res, ts, d)
		if mc == nil {
			continue // unmapped: already an omp-map error
		}
		scalarShared := mc.Low == nil && mc.Dir != minic.MapTo
		arrayShared := mc.Low != nil
		switch {
		case scalarShared && a.idx == nil:
			raceReported[d] = true
			*ds = append(*ds, diag(file, a.pos, RuleOMPRace, SevError,
				"unprotected write to shared scalar %q in a %d-thread region; wrap it in '#pragma omp critical'", d.DeclName(), ts.NumThreads))
		case arrayShared && a.idx != nil && !idxTainted(a.idx):
			raceReported[d] = true
			*ds = append(*ds, diag(file, a.pos, RuleOMPRace, SevError,
				"unprotected write to shared array %q with a thread-invariant index; all %d threads store to the same element — derive the index from omp_get_thread_num() or wrap the write in '#pragma omp critical'", d.DeclName(), ts.NumThreads))
		}
	}
}
