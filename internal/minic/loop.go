package minic

import (
	"strconv"
	"strings"
)

// LoopName is the cross-package join key of a for statement,
// "for@line:col": the lowered IR's loop graphs, the dependence and
// abstract-interpretation reports, perfbound's trip hints, the
// simulator's per-loop counters and the transformation steps all use it.
// The parser computes it once per loop; a loop built outside Parse gets
// it computed on each call.
func LoopName(st *ForStmt) string {
	if st.name != "" {
		return st.name
	}
	return loopName(st.Pos)
}

func loopName(p Pos) string { return string(p.append(append(make([]byte, 0, 28), "for@"...))) }

// ParseLoopName recovers the source position from a LoopName.
func ParseLoopName(name string) (Pos, bool) {
	at, ok := strings.CutPrefix(name, "for@")
	if !ok {
		return Pos{}, false
	}
	ls, cs, ok := strings.Cut(at, ":")
	if !ok {
		return Pos{}, false
	}
	line, err1 := strconv.Atoi(ls)
	col, err2 := strconv.Atoi(cs)
	if err1 != nil || err2 != nil {
		return Pos{}, false
	}
	return Pos{Line: line, Col: col}, true
}

// CountedLoop is the canonical counted reading of a for statement: one
// induction variable that a single post clause steps and the condition
// compares against a bound. It is syntactic; whether Step folds to a
// constant and whether Bound is loop-invariant is the caller's domain.
type CountedLoop struct {
	IV   Decl      // the induction variable
	Post *ExprStmt // the post clause that steps it
	Step Expr      // step magnitude; nil means 1 (++ and --)
	Sign int64     // +1 when Post adds Step, -1 when it subtracts
	// Op and Bound read `IV Op Bound`: a condition written `Bound Op' IV`
	// is mirrored. Op is any comparison, == and != included.
	Op    BinOp
	Bound Expr
}

// Counted recognises a counted loop. The accepted post clauses are ++v,
// v++, --v, v--, v += e, v -= e, v = v + e, v = e + v and v = v - e; the
// first one whose variable the condition compares (on either side) names
// the induction variable. A variable that anything else in the condition,
// body or other post clauses assigns does not advance linearly, so such a
// loop is not counted. Requires a sema-bound tree.
//
// Counted is small enough to inline, so a caller that does not keep the
// result holds it on its own stack: the test allocates nothing.
func Counted(st *ForStmt) *CountedLoop {
	var c CountedLoop
	if !counted(st, &c) {
		return nil
	}
	return &c
}

func counted(st *ForStmt, c *CountedLoop) bool {
	cond, ok := st.Cond.(*Binary)
	if !ok || !cond.Op.IsComparison() {
		return false
	}
	for _, p := range st.Post {
		if !stepOf(p, c) {
			continue
		}
		switch c.IV {
		case declOf(cond.L):
			c.Op, c.Bound = cond.Op, cond.R
		case declOf(cond.R):
			c.Op, c.Bound = mirror(cond.Op), cond.L
		default:
			continue
		}
		if assigns(c.IV, st.Cond, st.Body) {
			return false
		}
		for _, q := range st.Post {
			if q != p && assigns(c.IV, q) {
				return false
			}
		}
		return true
	}
	return false
}

// LoopAssigned is Assigned over the part of a loop that runs once per
// iteration: condition, body and post clauses, but not the init clauses.
func LoopAssigned(st *ForStmt) DeclSet {
	var s DeclSet
	s.addAssigned(st.Cond)
	s.addAssigned(st.Body)
	for _, p := range st.Post {
		s.addAssigned(p)
	}
	return s
}

// ExclusiveBound normalises the condition for a loop whose folded step is
// step: the loop runs while IV < Bound+adj (step > 0) or IV > Bound+adj
// (step < 0). ok is false when the comparison does not bound the
// direction of travel (==, !=, or a test the step moves away from).
func (c *CountedLoop) ExclusiveBound(step int64) (adj int64, ok bool) {
	switch {
	case step > 0 && c.Op == OpLt, step < 0 && c.Op == OpGt:
		return 0, true
	case step > 0 && c.Op == OpLe:
		return 1, true
	case step < 0 && c.Op == OpGe:
		return -1, true
	}
	return 0, false
}

func declOf(e Expr) Decl {
	if id, ok := e.(*Ident); ok {
		return id.Decl
	}
	return nil
}

// stepOf matches one post clause against the accepted step forms,
// filling c when it does.
func stepOf(s Stmt, c *CountedLoop) bool {
	es, ok := s.(*ExprStmt)
	if !ok {
		return false
	}
	*c = CountedLoop{Post: es, Sign: 1}
	switch x := es.X.(type) {
	case *IncDec:
		c.IV = declOf(x.X)
		if !x.Inc {
			c.Sign = -1
		}
	case *AssignExpr:
		c.IV = declOf(x.LHS)
		rhs, _ := x.RHS.(*Binary)
		switch {
		case x.Op != nil && *x.Op == OpAdd:
			c.Step = x.RHS
		case x.Op != nil && *x.Op == OpSub:
			c.Step, c.Sign = x.RHS, -1
		case x.Op != nil || rhs == nil:
			return false // another compound operator, or `v = e` with e not a sum
		case rhs.Op == OpAdd && declOf(rhs.L) == c.IV:
			c.Step = rhs.R
		case rhs.Op == OpAdd && declOf(rhs.R) == c.IV:
			c.Step = rhs.L
		case rhs.Op == OpSub && declOf(rhs.L) == c.IV:
			c.Step, c.Sign = rhs.R, -1
		default:
			return false
		}
	}
	return c.IV != nil
}

// mirror swaps the operands of an ordering comparison: b op v == v op' b.
func mirror(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}
