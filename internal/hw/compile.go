// Package hw turns a scheduled kernel into a compact executable datapath
// representation. It is the software analogue of Nymble's Verilog
// generation step: each graph becomes an array of flat instructions indexed
// by position, each pipeline stage knows which pure operations to evaluate
// and which variable-latency operations (VLOs) to issue, and value storage
// is preallocated per hardware-thread context. The cycle-level engine in
// internal/sim interprets this structure.
package hw

import (
	"fmt"

	"paravis/internal/ir"
	"paravis/internal/schedule"
)

// Value is one runtime value: an integer, a float, or a vector of floats.
// Exactly one field is meaningful, per the node's kind.
type Value struct {
	I int64
	F float32
	V []float32
}

// CNode is one flattened IR node.
type CNode struct {
	Op    ir.Op
	Kind  ir.ValKind
	Lanes int32

	// Argument positions within the graph's node array; -1 when unused.
	A0, A1, A2 int32
	// Args holds all arguments for variable-arity ops (loops).
	Args []int32
	// Pred is the predicate position, or -1.
	Pred int32

	IVal int64
	FVal float32

	// ParamIdx indexes CKernel.K.Params for OpParam nodes.
	ParamIdx int32
	// Memory ops.
	Space     ir.MemSpace
	LocalID   int32
	GlobalIdx int32 // index into the launcher's global-array table
	ElemWords int32
	Width     int32

	SemID int32
	// SubGraph indexes CKernel.Graphs for loop nodes.
	SubGraph int32
	// Outs lists, for loop nodes, the parent-graph LoopOut positions to
	// fill with final carry values on completion.
	Outs []LoopOutRef
	// Idx is the live-in / carry / loop-out index.
	Idx int32

	// Stage this node starts in; -1 for dead nodes.
	Stage int32
	// WaitStage is the stage a token may not enter until this VLO
	// completed (VLOs only).
	WaitStage int32

	Live bool
}

// CStage is one pipeline stage of a compiled graph.
type CStage struct {
	// Pure lists positions of pure ops evaluated when a token enters, in
	// schedule order.
	Pure []int32
	// Eval evaluates them: the closures of the Pure ops fused into one call
	// (nil for a stage with no pure work).
	Eval PureFn
	// Issue lists positions of VLOs issued when a token enters.
	Issue []int32
	// IntOps / FpOps / FpLanes are the activation counts reported to the
	// compute-performance event counters.
	IntOps  int
	FpOps   int
	FpLanes int
	// Reordering stages buffer one context per thread and allow the
	// hardware thread scheduler to reorder threads; static stages hold at
	// most one token.
	Reordering bool
}

// CGraph is one compiled dataflow graph.
type CGraph struct {
	ID     int
	Name   string
	G      *ir.Graph
	Nodes  []CNode
	Stages []CStage
	Depth  int
	// CondIdx is the position of the loop-continue predicate (-1 for the
	// top region, which executes exactly once).
	CondIdx int32
	// CarryUpdates are positions of the next-iteration carry values.
	CarryUpdates []int32
	NumCarry     int
	NumLiveIn    int
	// LiveInPos / CarryPos map live-in and carry indices to the node
	// positions the engine writes values into.
	LiveInPos []int32
	CarryPos  []int32
	// HasVLO reports whether any stage issues a VLO.
	HasVLO bool
	// Static[s] reports whether stage s is a static (non-reordering)
	// stage, mirrored out of Stages so occupancy checks on the engine's
	// hot path load one byte instead of a CStage.
	Static []bool
	// CheckAt is the stage whose completion triggers the loop-exit test:
	// the schedule's ExitStage()-1, or -2 (matching no stage) for non-loop graphs, so the
	// engine's per-stage test is a single comparison.
	CheckAt int32
	// CoastTo[s] is the furthest stage a token that has just entered stage
	// s may reach without a step of its own: stages s+1..CoastTo[s] issue
	// nothing and none of the moves s..CoastTo[s]-1 is the loop-exit test
	// (CheckAt). CoastTo[s] == s means no such run. The engine narrows the
	// bound at run time (VLO gates, tokens ahead, the sample window).
	CoastTo []int32
}

// LoopOutRef ties a parent-graph LoopOut node to a carried register.
type LoopOutRef struct {
	Pos   int32
	Carry int32
}

// CKernel is a fully compiled accelerator.
type CKernel struct {
	K      *ir.Kernel
	Sched  *schedule.Schedule
	Graphs []*CGraph
	// TopIdx is the index of the top-level graph (always 0).
	TopIdx int
	// GlobalNames maps external-array names to GlobalIdx order.
	GlobalNames []string
	Lanes       int
}

// GlobalIndex returns the table index of a named global array, or -1.
func (ck *CKernel) GlobalIndex(name string) int {
	for i, n := range ck.GlobalNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Compile flattens a scheduled kernel.
func Compile(k *ir.Kernel, s *schedule.Schedule) (*CKernel, error) {
	ck := &CKernel{K: k, Sched: s, Lanes: k.VectorLanes}
	if ck.Lanes <= 0 {
		ck.Lanes = 4
	}
	for _, p := range k.Params {
		if p.Pointer {
			ck.GlobalNames = append(ck.GlobalNames, p.Name)
		}
	}

	graphs := k.CollectGraphs()
	gIndex := make(map[*ir.Graph]int, len(graphs))
	for i, g := range graphs {
		gIndex[g] = i
	}

	// One slab holds every graph's int32 tables: LiveInPos, CarryPos and
	// CoastTo.
	words := 0
	for _, g := range graphs {
		gs := s.ByGraph[g]
		if gs == nil {
			return nil, fmt.Errorf("hw: graph %s has no schedule", g.Name)
		}
		words += g.NumLiveIn + g.NumCarry + gs.Depth
	}
	slab := make([]int32, words)
	for _, g := range graphs {
		gs := s.ByGraph[g]
		n := g.NumLiveIn + g.NumCarry + gs.Depth
		cg, err := compileGraph(ck, g, gs, gIndex, slab[:n:n])
		if err != nil {
			return nil, err
		}
		slab = slab[n:]
		if err := compileStages(cg); err != nil {
			return nil, err
		}
		ck.Graphs = append(ck.Graphs, cg)
	}
	return ck, nil
}

// compileGraph flattens one graph; tab (NumLiveIn + NumCarry + Depth
// words) backs its int32 tables.
func compileGraph(ck *CKernel, g *ir.Graph, gs *schedule.GraphSched, gIndex map[*ir.Graph]int, tab []int32) (*CGraph, error) {
	pos := make(map[*ir.Node]int32, len(g.Nodes))
	for i, n := range g.Nodes {
		pos[n] = int32(i)
	}
	at := func(n *ir.Node) int32 {
		if n == nil {
			return -1
		}
		return pos[n]
	}

	cg := &CGraph{
		ID:        g.ID,
		Name:      g.Name,
		G:         g,
		Depth:     gs.Depth,
		CondIdx:   at(g.Cond),
		NumCarry:  g.NumCarry,
		NumLiveIn: g.NumLiveIn,
		Nodes:     make([]CNode, len(g.Nodes)),
		Stages:    make([]CStage, gs.Depth),
	}
	for _, u := range g.CarryUpdate {
		cg.CarryUpdates = append(cg.CarryUpdates, at(u))
	}

	for i, n := range g.Nodes {
		cn := &cg.Nodes[i]
		cn.Op = n.Op
		cn.Kind = n.Kind
		cn.Lanes = int32(n.Lanes)
		cn.IVal = n.IVal
		cn.FVal = float32(n.FVal)
		cn.Idx = int32(n.Idx)
		cn.SemID = int32(n.SemID)
		cn.Pred = at(n.Pred)
		cn.Stage = -1
		cn.A0, cn.A1, cn.A2 = -1, -1, -1
		if len(n.Args) > 0 {
			cn.A0 = at(n.Args[0])
		}
		if len(n.Args) > 1 {
			cn.A1 = at(n.Args[1])
		}
		if len(n.Args) > 2 {
			cn.A2 = at(n.Args[2])
		}
		if n.Op == ir.OpLoopOp {
			cn.Args = make([]int32, len(n.Args))
			for j, a := range n.Args {
				cn.Args[j] = at(a)
			}
			sub, ok := gIndex[n.Sub]
			if !ok {
				return nil, fmt.Errorf("hw: loop n%d references unknown graph", n.ID)
			}
			cn.SubGraph = int32(sub)
		}
		if n.Op == ir.OpParam {
			idx := -1
			for pi, p := range ck.K.Params {
				if p.Name == n.Name {
					idx = pi
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("hw: param %q not in kernel interface", n.Name)
			}
			cn.ParamIdx = int32(idx)
		}
		if n.Op.IsMemory() {
			cn.Space = n.Arr.Space
			cn.ElemWords = int32(n.Arr.ElemWords)
			cn.Width = int32(n.Width)
			if n.Arr.Space == ir.SpaceLocal {
				cn.LocalID = int32(n.Arr.LocalID)
				cn.GlobalIdx = -1
			} else {
				gi := ck.GlobalIndex(n.Arr.Name)
				if gi < 0 {
					return nil, fmt.Errorf("hw: global array %q not in kernel interface", n.Arr.Name)
				}
				cn.GlobalIdx = int32(gi)
				cn.LocalID = -1
			}
		}
		cn.Live = gs.Live[n]
		if cn.Live {
			cn.Stage = int32(gs.Start[n])
			if n.Op.IsVLO() {
				cn.WaitStage = int32(gs.WaitStage[n])
				cg.HasVLO = true
			}
		}
	}

	// Index tables: live-in/carry positions and loop-out targets.
	nl, nc := g.NumLiveIn, g.NumCarry
	cg.LiveInPos, cg.CarryPos = tab[:nl:nl], tab[nl:nl+nc:nl+nc]
	for i := range cg.LiveInPos {
		cg.LiveInPos[i] = -1
	}
	for i := range cg.CarryPos {
		cg.CarryPos[i] = -1
	}
	for i, n := range g.Nodes {
		switch n.Op {
		case ir.OpLiveIn:
			cg.LiveInPos[n.Idx] = int32(i)
		case ir.OpCarry:
			cg.CarryPos[n.Idx] = int32(i)
		case ir.OpLoopOut:
			lp := pos[n.Args[0]]
			cg.Nodes[lp].Outs = append(cg.Nodes[lp].Outs, LoopOutRef{Pos: int32(i), Carry: int32(n.Idx)})
		}
	}

	// Stage tables come straight from the schedule.
	cg.Static = make([]bool, gs.Depth)
	for si := range gs.Stages {
		st := &gs.Stages[si]
		cst := &cg.Stages[si]
		cst.IntOps = st.IntOps
		cst.FpOps = st.FpOps
		cst.FpLanes = st.FpLanes
		cst.Reordering = st.Reordering
		cg.Static[si] = !st.Reordering
		for _, n := range st.Pure {
			cst.Pure = append(cst.Pure, pos[n])
		}
		for _, n := range st.Issue {
			cst.Issue = append(cst.Issue, pos[n])
		}
	}
	cg.CheckAt = -2
	if cg.CondIdx >= 0 {
		cg.CheckAt = int32(gs.ExitStage()) - 1
	}
	cg.CoastTo = coastBounds(cg, tab[nl+nc:])
	return cg, nil
}

// coastBounds fills to (Depth words) with CoastTo, backwards: a run from s
// extends the run from s+1 unless entering s+1 issues a VLO or leaving s
// is the loop-exit test.
func coastBounds(cg *CGraph, to []int32) []int32 {
	for s := cg.Depth - 1; s >= 0; s-- {
		to[s] = int32(s)
		if s+1 < cg.Depth && int32(s) != cg.CheckAt && len(cg.Stages[s+1].Issue) == 0 {
			to[s] = to[s+1]
		}
	}
	return to
}

// Stats describes the compiled accelerator for reporting and area modeling.
type Stats struct {
	Graphs           int
	TotalStages      int
	ReorderingStages int
	LiveNodes        int
	IntUnits         int
	FpUnits          int
	MemPorts         int
}

// Statistics summarizes the compiled kernel.
func (ck *CKernel) Statistics() Stats {
	var st Stats
	st.Graphs = len(ck.Graphs)
	for _, cg := range ck.Graphs {
		st.TotalStages += cg.Depth
		for si := range cg.Stages {
			if cg.Stages[si].Reordering {
				st.ReorderingStages++
			}
			st.IntUnits += cg.Stages[si].IntOps
			st.FpUnits += cg.Stages[si].FpOps
		}
		for i := range cg.Nodes {
			if cg.Nodes[i].Live {
				st.LiveNodes++
				if cg.Nodes[i].Op.IsMemory() {
					st.MemPorts++
				}
			}
		}
	}
	return st
}
