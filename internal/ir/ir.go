// Package ir defines the dataflow intermediate representation the Nymble-like
// HLS flow lowers MiniC kernels into. A kernel is a tree of Graphs (one per
// loop body plus the top-level region). Each Graph is a DAG of typed Nodes
// in topological order; loops appear in their parent graph as single
// variable-latency LoopOp nodes, exactly as the paper describes ("inner
// (nested) loops ... are embedded into the dataflow graph of the surrounding
// loop as a single operation node with statically unknown delay").
package ir

import (
	"cmp"
	"fmt"
	"slices"
)

// ValKind is the runtime kind of a value.
type ValKind int

// Value kinds.
const (
	KindInt ValKind = iota
	KindFloat
	KindVec
	KindNone // effect-only ops (stores, locks, barrier, loop)
)

func (k ValKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindVec:
		return "vec"
	case KindNone:
		return "none"
	}
	return fmt.Sprintf("ValKind(%d)", int(k))
}

// Op enumerates IR operations.
type Op int

// IR operations.
const (
	OpConstInt Op = iota
	OpConstFloat
	OpParam      // reads a scalar kernel parameter by name
	OpThreadID   // omp_get_thread_num()
	OpNumThreads // omp_get_num_threads()
	OpLiveIn     // value passed from the parent graph (index Idx)
	OpCarry      // loop-carried register at iteration start (index Idx)

	// Integer/float/vector arithmetic. Operand and result kinds are
	// uniform; vectors combine lane-wise (scalars are Splat-broadcast
	// during lowering).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem

	// Comparisons and logic produce int 0/1.
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
	OpNot

	OpSelect     // Args[0] != 0 ? Args[1] : Args[2]
	OpIntToFloat // int -> float
	OpFloatToInt // float -> int (C truncation)
	OpSplat      // scalar float -> vector broadcast
	OpExtract    // vector lane read:  Args[0]=vec, Args[1]=lane index
	OpInsert     // vector lane write: Args[0]=vec, Args[1]=lane, Args[2]=scalar -> new vec

	// Memory (variable-latency operations).
	OpLoad  // Args[0]=element index; Arr names the array; Width elements
	OpStore // Args[0]=element index, Args[1]=value

	// Synchronization (variable-latency operations).
	OpLock    // acquire the hardware semaphore SemID (spins)
	OpUnlock  // release
	OpBarrier // all-thread barrier

	// Nested loop (variable-latency operation). Args = live-ins followed
	// by initial carry values; Sub is the loop body graph.
	OpLoopOp
	OpLoopOut // Args[0] = LoopOp node; Idx = carried register index
)

var opNames = map[Op]string{
	OpConstInt: "const.i", OpConstFloat: "const.f", OpParam: "param",
	OpThreadID: "tid", OpNumThreads: "nthreads", OpLiveIn: "livein",
	OpCarry: "carry", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpLt: "lt", OpLe: "le", OpGt: "gt",
	OpGe: "ge", OpEq: "eq", OpNe: "ne", OpAnd: "and", OpOr: "or",
	OpNot: "not", OpSelect: "select", OpIntToFloat: "i2f",
	OpFloatToInt: "f2i", OpSplat: "splat", OpExtract: "extract",
	OpInsert: "insert", OpLoad: "load", OpStore: "store", OpLock: "lock",
	OpUnlock: "unlock", OpBarrier: "barrier", OpLoopOp: "loop",
	OpLoopOut: "loopout",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsVLO reports whether the operation has a statically unknown delay, i.e.
// whether it is a variable-latency operation in the paper's sense. Stages
// containing a VLO become reordering stages and can stall the pipeline.
func (o Op) IsVLO() bool {
	switch o {
	case OpLoad, OpStore, OpLock, OpUnlock, OpBarrier, OpLoopOp:
		return true
	}
	return false
}

// IsMemory reports whether the op accesses memory.
func (o Op) IsMemory() bool { return o == OpLoad || o == OpStore }

// IsFloatArith reports whether the op is floating-point arithmetic when its
// result kind is float or vector (used by the FLOP event counter).
func (o Op) IsFloatArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv:
		return true
	}
	return false
}

// IsIntArith reports whether the op counts as integer arithmetic.
func (o Op) IsIntArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem:
		return true
	}
	return false
}

// MemSpace distinguishes external DRAM from on-chip BRAM.
type MemSpace int

// Memory spaces.
const (
	SpaceExternal MemSpace = iota // board DRAM shared with the host
	SpaceLocal                    // per-thread on-chip BRAM
)

func (s MemSpace) String() string {
	if s == SpaceExternal {
		return "external"
	}
	return "local"
}

// ArrayRef identifies the array a memory op touches. Distinct arrays never
// alias: globals are distinct mapped buffers, locals are distinct BRAMs
// (this mirrors OpenMP map semantics).
type ArrayRef struct {
	Space     MemSpace
	Name      string
	LocalID   int // index into Kernel.Locals for SpaceLocal
	ElemWords int // 32-bit words per element (1 scalar, N for vectors)
}

func (a *ArrayRef) String() string {
	return fmt.Sprintf("%s:%s", a.Space, a.Name)
}

// Node is one IR operation.
type Node struct {
	ID   int
	Op   Op
	Kind ValKind
	// Lanes is the vector width for KindVec values and vector memory ops.
	Lanes int
	Args  []*Node

	IVal int64     // OpConstInt
	FVal float64   // OpConstFloat
	Name string    // OpParam
	Idx  int       // OpLiveIn / OpCarry / OpLoopOut index
	Arr  *ArrayRef // OpLoad / OpStore
	// Width is the number of scalar elements a memory op moves (1 for a
	// scalar access, Lanes for a vector access on a scalar-element array,
	// 1 for an access on a vector-element array — Arr.ElemWords covers it).
	Width int
	SemID int    // OpLock / OpUnlock semaphore id
	Sub   *Graph // OpLoopOp body

	// Effect ordering: nodes that must have completed before this node may
	// start, beyond dataflow (conflicting memory ops, lock fences).
	EffectDeps []*Node

	// Pred, if non-nil, predicates an effectful op: it executes only when
	// Pred evaluates nonzero (if-conversion of conditional stores/loops).
	Pred *Node
}

func (n *Node) String() string {
	s := fmt.Sprintf("n%d = %s", n.ID, n.Op)
	if n.Arr != nil {
		s += " " + n.Arr.String()
	}
	if n.Op == OpParam {
		s += " " + n.Name
	}
	return s
}

// Graph is a loop body (or the kernel's top-level region) in SSA-like
// dataflow form. Nodes are stored in topological order: every argument and
// effect dependency precedes its user.
type Graph struct {
	ID   int
	Name string

	Nodes []*Node

	NumLiveIn int
	NumCarry  int

	// Cond is the loop-continue predicate, evaluated from the carry and
	// live-in values at the start of each iteration. A nil Cond means the
	// graph executes exactly once (the kernel top-level region).
	Cond *Node

	// CarryUpdate[i] yields the next-iteration value of carried register i.
	CarryUpdate []*Node

	// CarryInit records, for documentation/validation, that LoopOp args
	// NumLiveIn+i seed carried register i.

	// Loops lists the nested LoopOp nodes (in Nodes as well).
	Loops []*Node
}

// Index returns n's position in g.Nodes, or -1 when n is nil or not a node
// of g. It searches by ID, so it relies on the ascending IDs Validate
// checks.
func (g *Graph) Index(n *Node) int {
	if n == nil {
		return -1
	}
	i, ok := slices.BinarySearchFunc(g.Nodes, n.ID, func(m *Node, id int) int { return cmp.Compare(m.ID, id) })
	if !ok || g.Nodes[i] != n {
		return -1
	}
	return i
}

// LocalArray describes a per-thread BRAM buffer.
type LocalArray struct {
	ID        int
	Name      string
	ElemWords int // 32-bit words per element
	NumElems  int
}

// SizeBytes returns the buffer size in bytes.
func (l *LocalArray) SizeBytes() int { return l.ElemWords * 4 * l.NumElems }

// ScalarExpr is a host-evaluated integer expression (map-clause sizes such
// as DIM*DIM, evaluated against the kernel's scalar arguments at launch).
type ScalarExpr interface {
	Eval(env map[string]int64) (int64, error)
}

// ConstExpr is a constant ScalarExpr.
type ConstExpr int64

// Eval returns the constant.
func (c ConstExpr) Eval(map[string]int64) (int64, error) { return int64(c), nil }

// ParamExpr reads a scalar kernel argument.
type ParamExpr string

// Eval looks the parameter up in env.
func (p ParamExpr) Eval(env map[string]int64) (int64, error) {
	v, ok := env[string(p)]
	if !ok {
		return 0, fmt.Errorf("ir: unknown parameter %q in size expression", string(p))
	}
	return v, nil
}

// BinExpr combines two ScalarExprs.
type BinExpr struct {
	Op   Op // OpAdd, OpSub, OpMul, OpDiv, OpRem
	L, R ScalarExpr
}

// Eval evaluates both sides and applies the operator.
func (b *BinExpr) Eval(env map[string]int64) (int64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("ir: division by zero in size expression")
		}
		return l / r, nil
	case OpRem:
		if r == 0 {
			return 0, fmt.Errorf("ir: modulo by zero in size expression")
		}
		return l % r, nil
	}
	return 0, fmt.Errorf("ir: unsupported size-expression op %s", b.Op)
}

// MapDir is the transfer direction of a mapped buffer.
type MapDir int

// Transfer directions.
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

// Map is a lowered map clause: which host buffer is copied to/from the
// device and how many elements it spans.
type Map struct {
	Dir    MapDir
	Name   string
	Scalar bool
	// Float records the element type of scalar maps (the host needs it to
	// encode/decode the one-word device buffer).
	Float bool
	Low   ScalarExpr // element offset; nil for scalars
	Len   ScalarExpr // element count; nil for scalars
}

// Param is a kernel parameter: either a scalar (int/float) or a pointer to
// a mapped global array.
type Param struct {
	Name    string
	Pointer bool
	Float   bool // scalar params: float vs int
}

// Kernel is a fully lowered accelerator kernel.
type Kernel struct {
	Name        string
	NumThreads  int
	VectorLanes int
	Params      []Param
	Maps        []Map
	Locals      []LocalArray
	NumSems     int // hardware semaphores (critical sections)
	Top         *Graph

	graphs []*Graph // all graphs, top first (filled by CollectGraphs)
}

// CollectGraphs returns all graphs in the kernel, top-level first,
// discovering nested loop bodies recursively. The result is cached.
func (k *Kernel) CollectGraphs() []*Graph {
	if k.graphs != nil {
		return k.graphs
	}
	var all []*Graph
	var walk func(g *Graph)
	walk = func(g *Graph) {
		all = append(all, g)
		for _, n := range g.Nodes {
			if n.Op == OpLoopOp {
				walk(n.Sub)
			}
		}
	}
	if k.Top != nil {
		walk(k.Top)
	}
	k.graphs = all
	return all
}

// NumNodes returns the total node count across all graphs.
func (k *Kernel) NumNodes() int {
	n := 0
	for _, g := range k.CollectGraphs() {
		n += len(g.Nodes)
	}
	return n
}

// CountOps returns per-op totals across all graphs (area model input).
func (k *Kernel) CountOps() map[Op]int {
	counts := make(map[Op]int)
	for _, g := range k.CollectGraphs() {
		for _, n := range g.Nodes {
			counts[n.Op]++
		}
	}
	return counts
}
