package minic

// This file defines the abstract syntax tree produced by the parser.

// Program is a parsed translation unit.
type Program struct {
	Funcs []*FuncDecl
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    *Type
	Params []*Param
	Body   *BlockStmt
	Pos    Pos
	// NumDecls and NumLoops, set by sema, bound the function's
	// declaration IDs (Decl.DeclID) and loop IDs (ForStmt.ID).
	NumDecls int
	NumLoops int
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
	Pos  Pos
	id   int // DeclID + 1; 0 until sema numbers it
}

// Decl is what an identifier binds to: a *Param or a *DeclStmt. Semantic
// analysis records the binding on every Ident and MapClause, so consumers
// key per-variable facts by declaration and never re-derive C scoping.
//
// DeclID is the declaration's dense index within its function: sema
// numbers the parameters first, then every DeclStmt in source order, so
// a shadowing declaration gets an ID of its own. Per-declaration facts
// live in tables indexed by it. A declaration sema never numbered (one
// built outside Parse) reports -1, which every table reads as a miss.
type Decl interface {
	DeclName() string
	DeclType() *Type
	DeclPos() Pos
	DeclID() int
}

func (p *Param) DeclName() string { return p.Name }
func (p *Param) DeclType() *Type  { return p.Type }
func (p *Param) DeclPos() Pos     { return p.Pos }
func (p *Param) DeclID() int      { return p.id - 1 }

func (d *DeclStmt) DeclName() string { return d.Name }
func (d *DeclStmt) DeclType() *Type  { return d.Typ }
func (d *DeclStmt) DeclPos() Pos     { return d.Pos }
func (d *DeclStmt) DeclID() int      { return d.id - 1 }

// DeclIndex is d's DeclID when it indexes a table of n entries (any
// number when n < 0), else -1: d is nil, unnumbered, or past the table.
func DeclIndex(d Decl, n int) int {
	if d == nil || n >= 0 && d.DeclID() >= n {
		return -1
	}
	return d.DeclID()
}

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmtNode() }

// Expr is implemented by all expression nodes. Every expression carries the
// type assigned by semantic analysis.
type Expr interface {
	exprNode()
	Type() *Type
	SetType(*Type)
}

type exprBase struct{ typ *Type }

func (e *exprBase) exprNode()       {}
func (e *exprBase) Type() *Type     { return e.typ }
func (e *exprBase) SetType(t *Type) { e.typ = t }

// --- Statements ---

// BlockStmt is a `{ ... }` compound statement.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

// DeclStmt declares a local variable, optionally with an initializer.
type DeclStmt struct {
	Name string
	Typ  *Type
	Init Expr // nil for arrays and uninitialized scalars
	Pos  Pos
	id   int // DeclID + 1; 0 until sema numbers it
}

// ExprStmt evaluates an expression for its side effects (assignment, call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// ForStmt is a C for loop. Unroll>0 requests unrolling by that factor
// (from `#pragma unroll N`). Init and Post hold one statement per
// comma-separated clause, e.g. `for(int k = 0, buffer = 0; ...; k += BS, ++buffer)`.
type ForStmt struct {
	Init   []Stmt // DeclStmts or ExprStmts; empty if absent
	Cond   Expr
	Post   []Stmt // ExprStmts; empty if absent
	Body   *BlockStmt
	Unroll int
	Pos    Pos
	id     int    // ID + 1; 0 until sema numbers it
	name   string // LoopName, set by the parser
}

// ID is the loop's dense index within its function, in source
// pre-order; per-loop facts live in tables indexed by it. A loop sema
// never numbered (one built outside Parse) reports -1.
func (f *ForStmt) ID() int { return f.id - 1 }

// IfStmt is an if/else statement.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else *BlockStmt // nil if absent
	Pos  Pos
}

// ReturnStmt returns from the function.
type ReturnStmt struct {
	X   Expr // nil for `return;`
	Pos Pos
}

// CriticalStmt is an OpenMP `#pragma omp critical` region.
type CriticalStmt struct {
	Body *BlockStmt
	Pos  Pos
}

// BarrierStmt is an OpenMP `#pragma omp barrier`.
type BarrierStmt struct {
	Pos Pos
}

// TargetStmt is an OpenMP `#pragma omp target parallel` offload region: the
// kernel that Nymble turns into an accelerator.
type TargetStmt struct {
	Maps       []MapClause
	NumThreads int // 0 = unspecified (default 1)
	Body       *BlockStmt
	Pos        Pos
}

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*ForStmt) stmtNode()      {}
func (*IfStmt) stmtNode()       {}
func (*ReturnStmt) stmtNode()   {}
func (*CriticalStmt) stmtNode() {}
func (*BarrierStmt) stmtNode()  {}
func (*TargetStmt) stmtNode()   {}

// MapDir is the direction of an OpenMP map clause.
type MapDir int

// Map clause directions (OpenMP 4.0 `map(to: ...)` etc.).
const (
	MapTo MapDir = iota
	MapFrom
	MapToFrom
)

func (d MapDir) String() string {
	switch d {
	case MapTo:
		return "to"
	case MapFrom:
		return "from"
	case MapToFrom:
		return "tofrom"
	}
	return "map?"
}

// MapClause describes one mapped variable, e.g. `map(to: A[0:DIM*DIM])`.
// For scalars Low and Len are nil.
type MapClause struct {
	Dir  MapDir
	Name string
	Decl Decl // the mapped variable's declaration, set by sema
	Low  Expr // nil for scalar maps
	Len  Expr // nil for scalar maps
	Pos  Pos
}

// --- Expressions ---

// Ident is a variable reference.
type Ident struct {
	exprBase
	Name string
	Decl Decl // the declaration the name resolves to, set by sema
	Pos  Pos
}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
	Pos   Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Value float64
	Pos   Pos
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpLAnd
	OpLOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}

func (op BinOp) String() string { return binOpNames[op] }

// IsComparison reports whether op yields a boolean (int 0/1) result.
func (op BinOp) IsComparison() bool { return op >= OpLt && op <= OpNe }

// IsLogical reports whether op is && or ||.
func (op BinOp) IsLogical() bool { return op == OpLAnd || op == OpLOr }

// Binary is a binary expression.
type Binary struct {
	exprBase
	Op   BinOp
	L, R Expr
	Pos  Pos
}

// Unary is a prefix unary expression: -x or !x.
type Unary struct {
	exprBase
	Neg bool // true: -, false: !
	X   Expr
	Pos Pos
}

// Cond is the ternary conditional c ? a : b.
type Cond struct {
	exprBase
	C, A, B Expr
	Pos     Pos
}

// Index is a (possibly multi-dimensional) array/pointer subscript a[i][j].
type Index struct {
	exprBase
	Base Expr
	Idx  []Expr
	Pos  Pos
}

// VecElem is a lane access into a vector value: v[i] where v is VECTOR.
type VecElem struct {
	exprBase
	Vec Expr
	Idx Expr
	Pos Pos
}

// VecLoad is a reinterpret-cast vector load: *((VECTOR*)&A[expr]).
type VecLoad struct {
	exprBase
	Base Expr // the pointer/array expression A
	Idx  Expr // the scalar element index
	Pos  Pos
}

// Assign is an assignment, possibly compound (op != nil).
type AssignExpr struct {
	exprBase
	LHS Expr   // Ident, Index, VecElem or VecLoad (as a vector store target)
	Op  *BinOp // nil for plain "=", else the compound operator
	RHS Expr
	Pos Pos
}

// IncDec is the ++/-- statement-expression (prefix or postfix; MiniC only
// allows it in statement or for-post position so the distinction is moot).
type IncDec struct {
	exprBase
	X   Expr
	Inc bool
	Pos Pos
}

// Call is a builtin function call (omp_get_thread_num etc.).
type Call struct {
	exprBase
	Name string
	Args []Expr
	Pos  Pos
}

// Cast is a parse-time cast node, e.g. `(VECTOR*)expr`. The parser folds the
// `*((VECTOR*)&A[i])` pattern into VecLoad; any cast that survives to
// semantic analysis is rejected.
type Cast struct {
	exprBase
	To  *Type
	X   Expr
	Pos Pos
}

// AddrOf is a parse-time `&expr` node, only valid under a vector cast.
type AddrOf struct {
	exprBase
	X   Expr
	Pos Pos
}

// InitList is a brace initializer, used to zero/broadcast-initialize vector
// declarations: `VECTOR sum = {0.0f};`.
type InitList struct {
	exprBase
	Elems []Expr
	Pos   Pos
}
