package staticcheck

import "paravis/internal/minic"

// checkStalls is the static half of the paper's narrow-accesses finding:
// a scalar (one-word) access to a DRAM-backed mapped array inside an
// innermost loop body issues a bus request per element and stalls the
// pipeline on memory. The advisory text matches the dynamic advisor's
// wording verbatim so the two can be cross-checked.
func checkStalls(file string, res *resolution, ts *minic.TargetStmt, ds *[]Diagnostic) {
	mappedArray := func(d *declInfo) bool {
		return d != nil && d.inMap && (d.DeclType().IsPointer() || d.DeclType().IsArray())
	}

	// Report one diagnostic per (loop, array), at the first scalar access.
	checkLoop := func(loop *minic.ForStmt) {
		seen := map[*declInfo]bool{}
		minic.Inspect(loop.Body, func(n minic.Node) bool {
			ix, ok := n.(*minic.Index)
			if !ok {
				return true
			}
			b, ok := ix.Base.(*minic.Ident)
			if !ok {
				return true
			}
			d := res.info[b.Decl]
			if !mappedArray(d) || seen[d] {
				return true
			}
			// A subscript that still yields a vector (array-of-vector
			// element) moves a full bus line; only scalar-element
			// accesses are narrow.
			if t := ix.Type(); t != nil && t.IsVector() {
				return true
			}
			seen[d] = true
			*ds = append(*ds, diag(file, ix.Pos, RuleStallLint, SevInfo,
				"scalar access to DRAM-backed %q in an innermost loop body; %s", d.DeclName(), ActionNarrowAccesses))
			return true
		})
	}

	hasLoop := func(b *minic.BlockStmt) bool {
		found := false
		minic.Inspect(b, func(n minic.Node) bool {
			_, isFor := n.(*minic.ForStmt)
			found = found || isFor
			return !found
		})
		return found
	}
	minic.Inspect(ts.Body, func(n minic.Node) bool {
		if loop, ok := n.(*minic.ForStmt); ok && !hasLoop(loop.Body) {
			checkLoop(loop)
		}
		return true
	})
}
