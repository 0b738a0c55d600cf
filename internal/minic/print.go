// AST printer: renders a parsed (and possibly transformed) program back
// to MiniC source that re-parses to the same tree. The printer is the
// foundation of internal/transform's source-to-source passes: a pass
// mutates the AST and prints it, and the result goes back through the
// ordinary Parse → vet → lower flow like any hand-written kernel.
//
// The output is canonical: two-space indents, one statement per line,
// minimal parentheses (reinserted only where precedence demands them),
// vector types spelled VECTOR and vector loads spelled in the one
// accepted dereference form *((VECTOR*)&arr[idx]). Because the form is
// canonical, Print is a fixpoint: Print(Parse(Print(p))) == Print(p),
// which the transform round-trip tests rely on for byte-stable output.
//
// Printing happens after define expansion, so the emitted source is
// self-contained: macros are gone, unroll factors and map sections are
// literal expressions, and only kernel parameters remain symbolic.
package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders the whole program as canonical MiniC source.
func Print(p *Program) string {
	var b printer
	for i, f := range p.Funcs {
		if i > 0 {
			b.raw("\n")
		}
		b.fun(f)
	}
	return b.sb.String()
}

// PrintExpr renders a single expression in the printer's canonical form.
// Two expressions are structurally equal exactly when their printed forms
// match, which the transform matchers use as their equality oracle.
func PrintExpr(e Expr) string {
	var b printer
	b.expr(e, precNone)
	return b.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (b *printer) raw(s string)  { b.sb.WriteString(s) }
func (b *printer) line(s string) { b.pad(); b.raw(s); b.raw("\n") }
func (b *printer) pad() {
	for i := 0; i < b.indent; i++ {
		b.raw("  ")
	}
}

// typeName renders the base (element) name of a type: the part that goes
// before the declarator. Vector types print as the VECTOR keyword
// regardless of lane count — the reader supplies lanes via Options.
func typeName(t *Type) string {
	switch {
	case t == nil:
		return "void"
	case t.IsPointer():
		return typeName(t.Elem) + " *"
	case t.IsArray():
		return typeName(t.Elem)
	case t.IsVector():
		return "VECTOR"
	case t.Basic == Int:
		return "int"
	case t.Basic == Float:
		return "float"
	}
	return "void"
}

// decl writes a declarator, with its initializer when init is not nil.
func (b *printer) decl(name string, t *Type, init Expr) {
	s := typeName(t)
	b.raw(s)
	if !strings.HasSuffix(s, "*") {
		b.raw(" ")
	}
	b.raw(name)
	if t != nil && t.IsArray() {
		for _, d := range t.Dims {
			b.raw("[" + strconv.Itoa(d) + "]")
		}
	}
	if init != nil {
		b.raw(" = ")
		b.expr(init, precNone)
	}
}

func (b *printer) fun(f *FuncDecl) {
	b.pad()
	b.decl(f.Name, f.Ret, nil)
	b.raw("(")
	for i, p := range f.Params {
		if i > 0 {
			b.raw(", ")
		}
		b.decl(p.Name, p.Type, nil)
	}
	b.raw(") {\n")
	b.block(f.Body.Stmts)
	b.line("}")
}

// block writes stmts one indent deeper.
func (b *printer) block(stmts []Stmt) {
	b.indent++
	for _, s := range stmts {
		b.stmt(s)
	}
	b.indent--
}

func (b *printer) stmt(s Stmt) {
	switch st := s.(type) {
	case *BlockStmt:
		b.line("{")
		b.block(st.Stmts)
		b.line("}")
	case *DeclStmt, *ExprStmt:
		b.pad()
		b.clauses([]Stmt{s})
		b.raw(";\n")
	case *ReturnStmt:
		b.pad()
		b.raw("return")
		if st.X != nil {
			b.raw(" ")
			b.expr(st.X, precNone)
		}
		b.raw(";\n")
	case *ForStmt:
		if st.Unroll > 0 {
			b.line("#pragma unroll " + strconv.Itoa(st.Unroll))
		}
		b.pad()
		b.raw("for (")
		b.clauses(st.Init)
		b.raw("; ")
		if st.Cond != nil {
			b.expr(st.Cond, precNone)
		}
		b.raw("; ")
		b.clauses(st.Post)
		b.raw(") {\n")
		b.block(st.Body.Stmts)
		b.line("}")
	case *IfStmt:
		b.pad()
		b.raw("if (")
		b.expr(st.Cond, precNone)
		b.raw(") {\n")
		b.block(st.Then.Stmts)
		if st.Else != nil {
			b.line("} else {")
			b.block(st.Else.Stmts)
		}
		b.line("}")
	case *CriticalStmt:
		b.line("#pragma omp critical")
		b.stmt(st.Body)
	case *BarrierStmt:
		b.line("#pragma omp barrier")
	case *TargetStmt:
		b.pad()
		b.raw("#pragma omp target parallel ")
		b.targetClauses(st)
		b.raw("\n")
		b.stmt(st.Body)
	default:
		b.line(fmt.Sprintf("/* unprintable %T */", s))
	}
}

// clauses writes for-header init/post entries, comma-separated, without
// the trailing semicolon (declarations and expressions both appear
// there).
func (b *printer) clauses(ss []Stmt) {
	for i, s := range ss {
		if i > 0 {
			b.raw(", ")
		}
		switch st := s.(type) {
		case *DeclStmt:
			b.decl(st.Name, st.Typ, st.Init)
		case *ExprStmt:
			b.expr(st.X, precNone)
		default:
			b.raw(fmt.Sprintf("/* unprintable %T */", s))
		}
	}
}

// targetClauses collapses consecutive map clauses of one direction into a
// single map() group, matching the hand-written sources' style.
func (b *printer) targetClauses(st *TargetStmt) {
	for i := 0; i < len(st.Maps); {
		if i > 0 {
			b.raw(" ")
		}
		b.raw("map(" + st.Maps[i].Dir.String() + ": ")
		j := i
		for ; j < len(st.Maps) && st.Maps[j].Dir == st.Maps[i].Dir; j++ {
			if j > i {
				b.raw(", ")
			}
			mc := &st.Maps[j]
			b.raw(mc.Name)
			if mc.Low != nil || mc.Len != nil {
				b.raw("[")
				b.expr(mc.Low, precNone)
				b.raw(":")
				b.expr(mc.Len, precNone)
				b.raw("]")
			}
		}
		b.raw(")")
		i = j
	}
	if st.NumThreads > 0 {
		if len(st.Maps) > 0 {
			b.raw(" ")
		}
		b.raw("num_threads(" + strconv.Itoa(st.NumThreads) + ")")
	}
}

// Operator precedence tiers for minimal re-parenthesization. Higher binds
// tighter; a subexpression is parenthesized when its own precedence is
// lower than its context's.
const (
	precNone    = 0
	precAssign  = 1
	precCond    = 2
	precLOr     = 3
	precLAnd    = 4
	precEq      = 5
	precRel     = 6
	precAdd     = 7
	precMul     = 8
	precUnary   = 9
	precPostfix = 10
)

func binPrec(op BinOp) int {
	switch op {
	case OpMul, OpDiv, OpRem:
		return precMul
	case OpAdd, OpSub:
		return precAdd
	case OpLt, OpLe, OpGt, OpGe:
		return precRel
	case OpEq, OpNe:
		return precEq
	case OpLAnd:
		return precLAnd
	case OpLOr:
		return precLOr
	}
	return precNone
}

func (b *printer) expr(e Expr, ctx int) {
	switch x := e.(type) {
	case *Ident:
		b.raw(x.Name)
	case *IntLit:
		b.raw(strconv.FormatInt(x.Value, 10))
	case *FloatLit:
		b.raw(floatLit(x.Value))
	case *Binary:
		p := binPrec(x.Op)
		b.paren(p < ctx, func() {
			b.expr(x.L, p)
			b.raw(" ")
			b.raw(x.Op.String())
			b.raw(" ")
			b.expr(x.R, p+1)
		})
	case *Unary:
		b.paren(precUnary < ctx, func() {
			if x.Neg {
				b.raw("-")
			} else {
				b.raw("!")
			}
			b.expr(x.X, precUnary)
		})
	case *Cond:
		b.paren(precCond < ctx, func() {
			b.expr(x.C, precCond+1)
			b.raw(" ? ")
			b.expr(x.A, precCond)
			b.raw(" : ")
			b.expr(x.B, precCond)
		})
	case *AssignExpr:
		b.paren(precAssign < ctx, func() {
			b.expr(x.LHS, precPostfix)
			if x.Op != nil {
				b.raw(" " + x.Op.String() + "= ")
			} else {
				b.raw(" = ")
			}
			b.expr(x.RHS, precAssign)
		})
	case *IncDec:
		b.paren(precUnary < ctx, func() {
			if x.Inc {
				b.raw("++")
			} else {
				b.raw("--")
			}
			b.expr(x.X, precUnary)
		})
	case *Index:
		b.paren(precPostfix < ctx, func() {
			b.expr(x.Base, precPostfix)
			for _, i := range x.Idx {
				b.raw("[")
				b.expr(i, precNone)
				b.raw("]")
			}
		})
	case *VecElem:
		b.paren(precPostfix < ctx, func() {
			b.expr(x.Vec, precPostfix)
			b.raw("[")
			b.expr(x.Idx, precNone)
			b.raw("]")
		})
	case *VecLoad:
		// The single dereference form the parser folds back to a VecLoad.
		b.raw("*((VECTOR*)&")
		b.expr(x.Base, precPostfix)
		b.raw("[")
		b.expr(x.Idx, precNone)
		b.raw("])")
	case *Call:
		b.raw(x.Name + "(")
		for i, a := range x.Args {
			if i > 0 {
				b.raw(", ")
			}
			b.expr(a, precAssign)
		}
		b.raw(")")
	case *Cast:
		b.paren(precUnary < ctx, func() {
			b.raw("(" + strings.TrimRight(typeName(x.To), " ") + ")")
			b.expr(x.X, precUnary)
		})
	case *AddrOf:
		b.paren(precUnary < ctx, func() {
			b.raw("&")
			b.expr(x.X, precUnary)
		})
	case *InitList:
		b.raw("{")
		for i, el := range x.Elems {
			if i > 0 {
				b.raw(", ")
			}
			b.expr(el, precAssign)
		}
		b.raw("}")
	default:
		b.raw(fmt.Sprintf("/* unprintable %T */", e))
	}
}

func (b *printer) paren(need bool, body func()) {
	if need {
		b.raw("(")
	}
	body()
	if need {
		b.raw(")")
	}
}

// floatLit renders a float literal so it re-lexes as a float: a decimal
// point is forced when the shortest form has neither '.' nor an exponent,
// and the 'f' suffix marks single precision as in the hand-written
// kernels ("4f" alone would not lex).
func floatLit(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s + "f"
}
