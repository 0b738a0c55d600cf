package staticcheck

import "paravis/internal/minic"

// access is one read or write of a resolved variable inside the target
// region, with its position and critical-section context.
type access struct {
	minic.Access
	d      *declInfo
	pos    minic.Pos
	inCrit bool
}

// whole reports whether the access touches a variable rather than an
// element of an array.
func (a access) whole() bool {
	_, ok := a.Holder().(*minic.Ident)
	return ok
}

// collectAccesses walks the target region and records every variable
// access with its write/critical context. A store is placed at its
// assignment.
func collectAccesses(res *resolution, ts *minic.TargetStmt) []access {
	var out []access
	crit := false
	record := func(a minic.Access) {
		if d := res.info(a.Decl); d != nil {
			at := a.Node
			if a.By != nil {
				at = a.By
			}
			out = append(out, access{Access: a, d: d, pos: minic.ExprPos(at), inCrit: crit})
		}
	}
	var walk func(root minic.Node)
	walk = func(root minic.Node) {
		minic.Inspect(root, func(n minic.Node) bool {
			switch x := n.(type) {
			case *minic.CriticalStmt:
				outer := crit
				crit = true
				walk(x.Body)
				crit = outer
				return false
			case minic.Expr:
				minic.Accesses(x, record)
				return false
			}
			return true
		})
	}
	walk(ts.Body)
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
			hit = hit || taint[res.info(v.Decl)]
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
					mark(res.info(t.Decl))
				case *minic.VecElem:
					if v, ok := t.Vec.(*minic.Ident); ok {
						mark(res.info(v.Decl))
					}
				}
			case *minic.DeclStmt:
				if tainted(res, taint, x.Init) {
					mark(res.info(x))
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
			local[res.info(st)] = true
		}
		return true
	})
	return local
}

// mapClauseOf returns the map clause naming d, or nil.
func mapClauseOf(res *resolution, ts *minic.TargetStmt, d *declInfo) *minic.MapClause {
	for i := range ts.Maps {
		if res.info(ts.Maps[i].Decl) == d {
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
		if a.Write {
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
			if a.Write {
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
		d := res.info(mc.Decl)
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
		if !a.Write || a.inCrit || local[d] || raceReported[d] {
			continue
		}
		mc := mapClauseOf(res, ts, d)
		if mc == nil {
			continue // unmapped: already an omp-map error
		}
		scalarShared := mc.Low == nil && mc.Dir != minic.MapTo
		arrayShared := mc.Low != nil
		switch {
		case scalarShared && a.whole():
			raceReported[d] = true
			*ds = append(*ds, diag(file, a.pos, RuleOMPRace, SevError,
				"unprotected write to shared scalar %q in a %d-thread region; wrap it in '#pragma omp critical'", d.DeclName(), ts.NumThreads))
		case arrayShared && !a.whole() && !tainted(res, taint, a.Node):
			raceReported[d] = true
			*ds = append(*ds, diag(file, a.pos, RuleOMPRace, SevError,
				"unprotected write to shared array %q with a thread-invariant index; all %d threads store to the same element — derive the index from omp_get_thread_num() or wrap the write in '#pragma omp critical'", d.DeclName(), ts.NumThreads))
		}
	}
}
