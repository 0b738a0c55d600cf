package staticcheck

import "paravis/internal/minic"

// declInfo carries the per-declaration attributes the rules need on top
// of what the declaration itself says (name, type, position).
type declInfo struct {
	minic.Decl
	uses  int  // identifier and map-clause references (reads and writes)
	inMap bool // named by a map clause
}

func (d *declInfo) isParam() bool {
	_, ok := d.Decl.(*minic.Param)
	return ok
}

// trackedScalar reports whether the variable participates in the scalar
// def-use analyses: plain int/float/vector locals (not params, arrays or
// pointers).
func (d *declInfo) trackedScalar() bool {
	return !d.isParam() && (d.DeclType().IsScalar() || d.DeclType().IsVector())
}

// resolution is the attribute table of one function, indexed by the
// DeclID of the declaration sema bound each identifier and map clause to.
type resolution struct {
	fn    *minic.FuncDecl
	decls []declInfo // parameters, then locals in source order
}

// info returns d's attributes, nil for a declaration sema never numbered.
func (r *resolution) info(d minic.Decl) *declInfo {
	if id := minic.DeclIndex(d, len(r.decls)); id >= 0 {
		return &r.decls[id]
	}
	return nil
}

func resolve(fn *minic.FuncDecl) *resolution {
	r := &resolution{fn: fn, decls: make([]declInfo, fn.NumDecls)}
	declare := func(d minic.Decl) {
		if di := r.info(d); di != nil {
			di.Decl = d
		}
	}
	for _, p := range fn.Params {
		declare(p)
	}
	minic.Inspect(fn.Body, func(n minic.Node) bool {
		switch x := n.(type) {
		case *minic.DeclStmt:
			declare(x)
		case *minic.Ident:
			if d := r.info(x.Decl); d != nil {
				d.uses++
			}
		case *minic.TargetStmt:
			for i := range x.Maps {
				if d := r.info(x.Maps[i].Decl); d != nil {
					d.uses++
					d.inMap = true
				}
			}
		}
		return true
	})
	return r
}
