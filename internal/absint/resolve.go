package absint

import "paravis/internal/minic"

// variable is the analysis view of one declaration (parameter or local).
type variable struct {
	name    string
	typ     *minic.Type
	isParam bool
	// tracked: the flow state carries a value for it (plain int scalar),
	// at index slot.
	tracked bool
	slot    int
	// declaredInRegion: the declaration sits inside the omp target body,
	// making the variable thread-private.
	declaredInRegion bool
	// sharedMut: declared outside the target region but assigned inside
	// it — other omp threads may write it concurrently, so reads inside
	// the region are untrackable.
	sharedMut bool
	// lanes/dims describe array/vector geometry for bounds checks.
	lanes int
	dims  []int
}

// resolution is the per-function variable table, indexed by the DeclID
// of the declaration sema bound every identifier and map clause to.
// Nodes sema never numbered (none in parsed programs) look up nil and
// evaluate to top.
type resolution struct {
	vars  []variable
	slots int // tracked variables: the length of a flow state
	nt    int // omp thread count (1 when no target or unspecified)
}

func (r *resolution) byDecl(d minic.Decl) *variable {
	if id := minic.DeclIndex(d, len(r.vars)); id >= 0 {
		return &r.vars[id]
	}
	return nil
}

func resolveFn(fn *minic.FuncDecl) *resolution {
	r := &resolution{vars: make([]variable, fn.NumDecls), nt: 1}
	target := minic.TargetOf(fn)
	var mut minic.DeclSet // written in the region
	if target != nil {
		mut = minic.Assigned(target.Body)
	}
	declare := func(d minic.Decl) {
		v := r.byDecl(d)
		if v == nil {
			return
		}
		typ := d.DeclType()
		_, isParam := d.(*minic.Param)
		*v = variable{name: d.DeclName(), typ: typ, isParam: isParam, sharedMut: mut.Has(d)}
		if v.tracked = typ.IsScalar() && typ.Basic == minic.Int; v.tracked {
			v.slot = r.slots
			r.slots++
		}
		if typ.IsVector() {
			v.lanes = typ.Lanes
		}
		if typ.IsArray() {
			v.dims = typ.Dims
			v.lanes = 1
			if typ.Elem != nil && typ.Elem.Lanes > 1 {
				v.lanes = typ.Elem.Lanes
			}
		}
	}
	for _, p := range fn.Params {
		declare(p)
	}
	minic.Inspect(fn.Body, func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok {
			declare(d)
		}
		return true
	})
	if target == nil {
		return r
	}
	if target.NumThreads > 0 {
		r.nt = target.NumThreads
	}
	minic.Inspect(target.Body, func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok {
			if v := r.byDecl(d); v != nil {
				v.declaredInRegion, v.sharedMut = true, false
			}
		}
		return true
	})
	return r
}
