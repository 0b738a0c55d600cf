package ir

import (
	"fmt"
	"strings"

	"paravis/internal/slab"
)

// Alloc hands out one kernel's nodes: IDs from 0 in creation order, the
// Node values and their Args slices carved from chunked slabs, so that
// building a kernel allocates per chunk rather than per node. Every
// builder of a kernel shares one Alloc; the zero value is ready to use.
type Alloc struct {
	next  int
	nodes slab.Of[Node]
	args  slab.Lists[*Node]
}

func (a *Alloc) node(n Node) *Node {
	n.ID = a.next
	a.next++
	return a.nodes.New(n)
}

// list copies ns into the args slab (cap == len).
func (a *Alloc) list(ns ...*Node) []*Node { return a.args.Carve(ns) }

// Builder incrementally constructs a Graph in topological order. The
// lowering pass and tests use it; it assigns node IDs and keeps the node
// list consistent.
type Builder struct {
	g Graph
	a *Alloc
}

// NewBuilder returns a builder for a fresh graph whose nodes come from a,
// which every builder of the kernel shares so node IDs are dense
// kernel-wide and ascend within each graph.
func NewBuilder(id int, name string, a *Alloc) *Builder {
	// Most graphs the lowering builds hold a few dozen nodes.
	return &Builder{g: Graph{ID: id, Name: name, Nodes: make([]*Node, 0, 32)}, a: a}
}

// Graph returns the graph under construction.
func (b *Builder) Graph() *Graph { return &b.g }

// add appends a node, assigning its ID, and returns it.
func (b *Builder) add(n Node) *Node {
	p := b.a.node(n)
	b.g.Nodes = append(b.g.Nodes, p)
	if p.Op == OpLoopOp {
		b.g.Loops = append(b.g.Loops, p)
	}
	return p
}

// ConstInt appends an integer constant.
func (b *Builder) ConstInt(v int64) *Node {
	return b.add(Node{Op: OpConstInt, Kind: KindInt, IVal: v})
}

// ConstFloat appends a float constant.
func (b *Builder) ConstFloat(v float64) *Node {
	return b.add(Node{Op: OpConstFloat, Kind: KindFloat, FVal: v})
}

// Param appends a scalar parameter read.
func (b *Builder) Param(name string, kind ValKind) *Node {
	return b.add(Node{Op: OpParam, Kind: kind, Name: name})
}

// ThreadID appends omp_get_thread_num().
func (b *Builder) ThreadID() *Node { return b.add(Node{Op: OpThreadID, Kind: KindInt}) }

// NumThreads appends omp_get_num_threads().
func (b *Builder) NumThreads() *Node { return b.add(Node{Op: OpNumThreads, Kind: KindInt}) }

// LiveIn appends a live-in value reference.
func (b *Builder) LiveIn(idx int, kind ValKind, lanes int) *Node {
	if idx >= b.g.NumLiveIn {
		b.g.NumLiveIn = idx + 1
	}
	return b.add(Node{Op: OpLiveIn, Kind: kind, Lanes: lanes, Idx: idx})
}

// Carry appends a carried-register read.
func (b *Builder) Carry(idx int, kind ValKind, lanes int) *Node {
	if idx >= b.g.NumCarry {
		b.g.NumCarry = idx + 1
	}
	return b.add(Node{Op: OpCarry, Kind: kind, Lanes: lanes, Idx: idx})
}

// Bin appends a binary arithmetic/compare node. Result kind follows the
// operands for arithmetic and is int for comparisons/logic.
func (b *Builder) Bin(op Op, l, r *Node) *Node {
	kind := l.Kind
	lanes := l.Lanes
	switch op {
	case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe, OpAnd, OpOr:
		kind, lanes = KindInt, 0
	}
	return b.add(Node{Op: op, Kind: kind, Lanes: lanes, Args: b.a.list(l, r)})
}

// Not appends logical negation.
func (b *Builder) Not(x *Node) *Node {
	return b.add(Node{Op: OpNot, Kind: KindInt, Args: b.a.list(x)})
}

// Select appends c ? a : b.
func (b *Builder) Select(c, a, x *Node) *Node {
	return b.add(Node{Op: OpSelect, Kind: a.Kind, Lanes: a.Lanes, Args: b.a.list(c, a, x)})
}

// IntToFloat appends an int->float conversion.
func (b *Builder) IntToFloat(x *Node) *Node {
	return b.add(Node{Op: OpIntToFloat, Kind: KindFloat, Args: b.a.list(x)})
}

// FloatToInt appends a float->int conversion.
func (b *Builder) FloatToInt(x *Node) *Node {
	return b.add(Node{Op: OpFloatToInt, Kind: KindInt, Args: b.a.list(x)})
}

// Splat broadcasts a scalar float into a vector.
func (b *Builder) Splat(x *Node, lanes int) *Node {
	return b.add(Node{Op: OpSplat, Kind: KindVec, Lanes: lanes, Args: b.a.list(x)})
}

// Extract reads one lane of a vector.
func (b *Builder) Extract(v, lane *Node) *Node {
	return b.add(Node{Op: OpExtract, Kind: KindFloat, Args: b.a.list(v, lane)})
}

// Insert writes one lane of a vector, producing a new vector value.
func (b *Builder) Insert(v, lane, s *Node) *Node {
	return b.add(Node{Op: OpInsert, Kind: KindVec, Lanes: v.Lanes, Args: b.a.list(v, lane, s)})
}

// Load appends a memory load.
func (b *Builder) Load(arr *ArrayRef, idx *Node, kind ValKind, lanes, width int) *Node {
	return b.add(Node{Op: OpLoad, Kind: kind, Lanes: lanes, Args: b.a.list(idx), Arr: arr, Width: width})
}

// Store appends a memory store.
func (b *Builder) Store(arr *ArrayRef, idx, val *Node, width int) *Node {
	return b.add(Node{Op: OpStore, Kind: KindNone, Args: b.a.list(idx, val), Arr: arr, Width: width})
}

// Lock appends a semaphore acquire.
func (b *Builder) Lock(sem int) *Node {
	return b.add(Node{Op: OpLock, Kind: KindNone, SemID: sem})
}

// Unlock appends a semaphore release.
func (b *Builder) Unlock(sem int) *Node {
	return b.add(Node{Op: OpUnlock, Kind: KindNone, SemID: sem})
}

// Barrier appends an all-thread barrier.
func (b *Builder) Barrier() *Node { return b.add(Node{Op: OpBarrier, Kind: KindNone}) }

// Loop appends a nested-loop node whose body is sub.
func (b *Builder) Loop(sub *Graph, args ...*Node) *Node {
	return b.add(Node{Op: OpLoopOp, Kind: KindNone, Args: b.a.list(args...), Sub: sub})
}

// LoopOut reads carried register idx of a finished loop.
func (b *Builder) LoopOut(loop *Node, idx int, kind ValKind, lanes int) *Node {
	return b.add(Node{Op: OpLoopOut, Kind: kind, Lanes: lanes, Args: b.a.list(loop), Idx: idx})
}

// Dump renders a kernel as text for debugging and golden tests.
func Dump(k *Kernel) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s threads=%d lanes=%d sems=%d\n", k.Name, k.NumThreads, k.VectorLanes, k.NumSems)
	for _, p := range k.Params {
		fmt.Fprintf(&sb, "  param %s pointer=%v float=%v\n", p.Name, p.Pointer, p.Float)
	}
	for _, m := range k.Maps {
		fmt.Fprintf(&sb, "  map %s %s scalar=%v\n", m.Dir, m.Name, m.Scalar)
	}
	for _, l := range k.Locals {
		fmt.Fprintf(&sb, "  local %s elems=%d words/elem=%d\n", l.Name, l.NumElems, l.ElemWords)
	}
	for _, g := range k.CollectGraphs() {
		fmt.Fprintf(&sb, "graph %s(#%d) livein=%d carry=%d\n", g.Name, g.ID, g.NumLiveIn, g.NumCarry)
		for _, n := range g.Nodes {
			fmt.Fprintf(&sb, "  n%-4d %-8s %-6s", n.ID, n.Op, n.Kind)
			for _, a := range n.Args {
				fmt.Fprintf(&sb, " n%d", a.ID)
			}
			switch n.Op {
			case OpConstInt:
				fmt.Fprintf(&sb, " %d", n.IVal)
			case OpConstFloat:
				fmt.Fprintf(&sb, " %g", n.FVal)
			case OpParam:
				fmt.Fprintf(&sb, " %s", n.Name)
			case OpLiveIn, OpCarry, OpLoopOut:
				fmt.Fprintf(&sb, " [%d]", n.Idx)
			case OpLoad, OpStore:
				fmt.Fprintf(&sb, " %s w=%d", n.Arr, n.Width)
			case OpLock, OpUnlock:
				fmt.Fprintf(&sb, " sem=%d", n.SemID)
			case OpLoopOp:
				fmt.Fprintf(&sb, " -> graph#%d", n.Sub.ID)
			}
			if len(n.EffectDeps) > 0 {
				sb.WriteString(" eff[")
				for i, d := range n.EffectDeps {
					if i > 0 {
						sb.WriteString(",")
					}
					fmt.Fprintf(&sb, "n%d", d.ID)
				}
				sb.WriteString("]")
			}
			if n.Pred != nil {
				fmt.Fprintf(&sb, " pred=n%d", n.Pred.ID)
			}
			sb.WriteString("\n")
		}
		if g.Cond != nil {
			fmt.Fprintf(&sb, "  cond n%d\n", g.Cond.ID)
		}
		for i, u := range g.CarryUpdate {
			fmt.Fprintf(&sb, "  carry[%d] <- n%d\n", i, u.ID)
		}
	}
	return sb.String()
}
