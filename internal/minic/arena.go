package minic

import "paravis/internal/slab"

// arena is one parse's node slabs: every Parse call carves its nodes
// and child lists from slabs it owns, which its pragma expressions and
// sema use too. Lists are gathered on the stacks before they are carved.
type arena struct {
	idents    slab.Of[Ident]
	ints      slab.Of[IntLit]
	floats    slab.Of[FloatLit]
	binaries  slab.Of[Binary]
	unaries   slab.Of[Unary]
	indexes   slab.Of[Index]
	vecElems  slab.Of[VecElem]
	assigns   slab.Of[AssignExpr]
	incDecs   slab.Of[IncDec]
	calls     slab.Of[Call]
	casts     slab.Of[Cast]
	decls     slab.Of[DeclStmt]
	exprStmts slab.Of[ExprStmt]
	blocks    slab.Of[BlockStmt]
	fors      slab.Of[ForStmt]
	ifs       slab.Of[IfStmt]
	params    slab.Of[Param]
	vec       *Type // the VECTOR type, shared by the parse's nodes

	stmts     slab.Lists[Stmt]
	exprs     slab.Lists[Expr]
	stmtStack []Stmt
	exprStack []Expr
	// The stacks' and sema's scope's usual depth, allocated with the arena.
	stmtBuf [64]Stmt
	exprBuf [16]Expr
	declBuf [32]Decl
	markBuf [16]int

	// lexer and toks lex the pragma expressions.
	lexer Lexer
	toks  []Token
}

func (a *arena) vector(lanes int) *Type {
	if a.vec == nil || a.vec.Lanes != lanes {
		a.vec = TypeVector(lanes)
	}
	return a.vec
}

// stmtList carves the statements pushed since mark and pops them.
func (a *arena) stmtList(mark int) []Stmt {
	out := a.stmts.Carve(a.stmtStack[mark:])
	a.stmtStack = a.stmtStack[:mark]
	return out
}

// exprList is stmtList for expressions.
func (a *arena) exprList(mark int) []Expr {
	out := a.exprs.Carve(a.exprStack[mark:])
	a.exprStack = a.exprStack[:mark]
	return out
}
