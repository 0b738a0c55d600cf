// Package schedule computes the static pipeline schedule of a lowered
// kernel, mirroring Nymble's synthesis-time scheduling: every operation is
// assigned a start stage honoring dataflow and memory-ordering edges;
// variable-latency operations (VLOs) are scheduled with their expected
// minimum delay; stages containing VLOs become reordering stages (they can
// stall and let faster threads overtake), while the stages in between form
// static regions.
package schedule

import (
	"fmt"

	"paravis/internal/ir"
)

// Latencies is the operator latency table (in pipeline stages). VLO entries
// are the optimistic minimum delays the scheduler assumes; the simulator
// supplies the actual delays at run time.
type Latencies struct {
	IntAdd      int // add/sub/compare/logic/select/lane ops
	IntMul      int
	IntDiv      int
	FpAdd       int
	FpMul       int
	FpDiv       int
	Conv        int // int<->float
	MinLocal    int // expected minimum BRAM access delay
	MinExternal int // expected minimum external-DRAM access delay
	MinStore    int // store issue (posted write)
	MinLock     int // semaphore acquire round-trip, uncontended
	MinLoop     int // nested loop, at least one iteration
}

// DefaultLatencies returns latencies typical of an FPGA datapath clocked
// around 150 MHz (single-precision FP cores take a few cycles; integer
// logic is single-cycle).
func DefaultLatencies() Latencies {
	return Latencies{
		IntAdd:      1,
		IntMul:      2,
		IntDiv:      8,
		FpAdd:       3,
		FpMul:       3,
		FpDiv:       10,
		Conv:        2,
		MinLocal:    2,
		MinExternal: 8,
		MinStore:    1,
		MinLock:     2,
		MinLoop:     1,
	}
}

// Config configures schedule construction.
type Config struct {
	Lat Latencies
}

// DefaultConfig returns the default scheduling configuration.
func DefaultConfig() Config { return Config{Lat: DefaultLatencies()} }

// StageInfo describes one pipeline stage of a graph.
type StageInfo struct {
	// Pure ops starting at this stage, in topological order.
	Pure []*ir.Node
	// Issue lists VLOs issued when a token enters this stage.
	Issue []*ir.Node
	// WaitBefore lists VLOs that must have completed before a token may
	// enter this stage (their consumers start here).
	WaitBefore []*ir.Node
	// IntOps and FpOps count arithmetic units active in this stage
	// (the per-stage activation events of the paper).
	IntOps int
	FpOps  int
	// FpLanes counts FP lane-operations (vector ops count Lanes each);
	// this is the FLOP weight used by the compute-performance counter.
	FpLanes int
	// Reordering marks stages that contain VLOs: they buffer one context
	// per thread and let the hardware thread scheduler reorder threads.
	Reordering bool
}

// GraphSched is the schedule of one dataflow graph.
type GraphSched struct {
	G     *ir.Graph
	Depth int
	// CondStage is the stage at which the loop-continue decision is known
	// (tokens of exiting iterations leave the pipeline there).
	CondStage int
	Stages    []StageInfo
	// NumReordering counts reordering stages (area model input).
	NumReordering int
}

// ExitStage is the stage from whose end a token of an exiting iteration
// leaves the pipeline: CondStage, but never before the end of stage 1.
func (gs *GraphSched) ExitStage() int { return max(gs.CondStage, 1) }

// Schedule is the full kernel schedule. Its per-node facts are
// kernel-wide tables indexed by ir.Node.ID; a dead node reads false or 0
// in every one of them.
type Schedule struct {
	K   *ir.Kernel
	Cfg Config
	// Live marks the nodes that execute.
	Live []bool
	// Start is each live node's start stage, Lat its pipeline latency.
	Start []int
	Lat   []int
	// WaitStage is, for each live VLO, the first stage a token may not
	// enter until the VLO has completed: the earliest stage of any
	// consumer of its value or of any operation ordered after it. VLOs
	// nobody waits on within the iteration gate only the iteration end
	// (Depth-1) — this is what lets an independent prefetch loop overlap a
	// compute loop (double buffering, Fig. 9).
	WaitStage []int

	graphs []GraphSched // by ir.Graph.ID
}

// Graph returns the schedule of one of the kernel's graphs.
func (s *Schedule) Graph(g *ir.Graph) *GraphSched { return &s.graphs[g.ID] }

// TotalStages sums pipeline depths across all graphs.
func (s *Schedule) TotalStages() int {
	n := 0
	for i := range s.graphs {
		n += s.graphs[i].Depth
	}
	return n
}

// Build computes the schedule of every graph in the kernel. k must be
// validated IR, as lower.Lower returns it: its dense node and graph IDs
// index the schedule's tables, and its ascending node IDs order the stage
// lists. Build itself reports no error on such IR.
func Build(k *ir.Kernel, cfg Config) (*Schedule, error) {
	graphs := k.CollectGraphs()
	n := k.NumNodes()
	ints := make([]int, 3*n)
	s := &Schedule{
		K: k, Cfg: cfg,
		Live:      make([]bool, n),
		Start:     ints[:n:n],
		Lat:       ints[n : 2*n : 2*n],
		WaitStage: ints[2*n:],
		graphs:    make([]GraphSched, len(graphs)),
	}
	for _, g := range graphs {
		s.buildGraph(g, s.Graph(g))
	}
	return s, nil
}

// latency returns the pipeline latency of a node.
func latency(n *ir.Node, lat Latencies) int {
	switch n.Op {
	case ir.OpConstInt, ir.OpConstFloat, ir.OpParam, ir.OpThreadID,
		ir.OpNumThreads, ir.OpLiveIn, ir.OpCarry, ir.OpLoopOut:
		return 0
	case ir.OpAdd, ir.OpSub:
		if n.Kind == ir.KindFloat || n.Kind == ir.KindVec {
			return lat.FpAdd
		}
		return lat.IntAdd
	case ir.OpMul:
		if n.Kind == ir.KindFloat || n.Kind == ir.KindVec {
			return lat.FpMul
		}
		return lat.IntMul
	case ir.OpDiv:
		if n.Kind == ir.KindFloat || n.Kind == ir.KindVec {
			return lat.FpDiv
		}
		return lat.IntDiv
	case ir.OpRem:
		return lat.IntDiv
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe:
		if n.Args[0].Kind == ir.KindFloat {
			return lat.FpAdd
		}
		return lat.IntAdd
	case ir.OpAnd, ir.OpOr, ir.OpNot, ir.OpSelect, ir.OpSplat,
		ir.OpExtract, ir.OpInsert:
		return lat.IntAdd
	case ir.OpIntToFloat, ir.OpFloatToInt:
		return lat.Conv
	case ir.OpLoad:
		if n.Arr.Space == ir.SpaceLocal {
			return lat.MinLocal
		}
		return lat.MinExternal
	case ir.OpStore:
		return lat.MinStore
	case ir.OpLock, ir.OpUnlock:
		return lat.MinLock
	case ir.OpBarrier:
		return lat.MinLock
	case ir.OpLoopOp:
		return lat.MinLoop
	}
	return 1
}

// markLive marks the nodes that must execute: side-effecting VLOs, the
// loop condition, carry updates, and everything they transitively depend
// on. Dead pure nodes (e.g. unused loop outputs) consume no stage, no
// hardware and no interpreter time.
func markLive(live []bool, g *ir.Graph) {
	for _, n := range g.Nodes {
		if hasSideEffect(n.Op) {
			mark(live, n)
		}
	}
	mark(live, g.Cond)
	for _, u := range g.CarryUpdate {
		mark(live, u)
	}
}

func mark(live []bool, n *ir.Node) {
	if n == nil || live[n.ID] {
		return
	}
	live[n.ID] = true
	for _, a := range n.Args {
		mark(live, a)
	}
	for _, d := range n.EffectDeps {
		mark(live, d)
	}
	mark(live, n.Pred)
}

// hasSideEffect reports whether an op mutates architectural state and must
// therefore be scheduled after the loop-exit decision (loads may issue
// speculatively; stores, locks, barriers and nested loops may not).
func hasSideEffect(o ir.Op) bool {
	switch o {
	case ir.OpStore, ir.OpLock, ir.OpUnlock, ir.OpBarrier, ir.OpLoopOp:
		return true
	}
	return false
}

// computeStarts places g's live nodes ASAP, with an extra floor for
// side-effecting ops: they may not start before the loop-continue
// decision is known (minEffect), so an exiting iteration never mutates
// state. It returns the pipeline depth and the cond stage.
func (s *Schedule) computeStarts(g *ir.Graph, minEffect int) (depth, condStage int) {
	live, start, lat := s.Live, s.Start, s.Lat
	ready := func(d *ir.Node) int { return start[d.ID] + lat[d.ID] }
	depth = 1
	for _, n := range g.Nodes {
		if !live[n.ID] {
			continue
		}
		st := 0
		for _, a := range n.Args {
			st = max(st, ready(a))
		}
		for _, d := range n.EffectDeps {
			// Dead effect deps (dropped speculative loads) impose no
			// ordering.
			if live[d.ID] {
				st = max(st, ready(d))
			}
		}
		if n.Pred != nil {
			st = max(st, ready(n.Pred))
		}
		if hasSideEffect(n.Op) && st < minEffect {
			st = minEffect
		}
		start[n.ID] = st
		// Zero-latency nodes (e.g. LoopOut wires) still occupy a stage
		// slot.
		depth = max(depth, st+lat[n.ID], st+1)
	}
	if g.Cond != nil {
		condStage = ready(g.Cond)
		depth = max(depth, condStage+1)
	}
	return depth, condStage
}

// noteWait records in wait (by node ID: the earliest waiting stage + 1, 0
// for none) that a node starting at stage at consumes dep. A LoopOut is a
// zero-latency wire off its loop's result registers: it forwards the
// loop's completion requirement.
func noteWait(wait []int, dep *ir.Node, at int) {
	if dep.Op == ir.OpLoopOut {
		dep = dep.Args[0]
	} else if !dep.Op.IsVLO() {
		return
	}
	if w := wait[dep.ID]; w == 0 || at < w-1 {
		wait[dep.ID] = at + 1
	}
}

// noteWaits records the waits of g's live nodes, the earliest stage of
// any node that consumes a VLO's value, is predicated on it, or is
// effect-ordered after it.
func noteWaits(wait []int, g *ir.Graph, live []bool, start []int) {
	for _, n := range g.Nodes {
		if !live[n.ID] {
			continue
		}
		at := start[n.ID]
		if n.Op != ir.OpLoopOut {
			// A LoopOut's own consumers impose its waits (noteWait).
			for _, a := range n.Args {
				noteWait(wait, a, at)
			}
		}
		if n.Pred != nil {
			noteWait(wait, n.Pred, at)
		}
		for _, d := range n.EffectDeps {
			if live[d.ID] {
				noteWait(wait, d, at)
			}
		}
	}
}

func (s *Schedule) buildGraph(g *ir.Graph, gs *GraphSched) {
	live, start, lat := s.Live, s.Start, s.Lat
	markLive(live, g)
	for _, n := range g.Nodes {
		if live[n.ID] {
			lat[n.ID] = latency(n, s.Cfg.Lat)
		}
	}

	depth, condStage := s.computeStarts(g, 0)
	if g.Cond != nil {
		// Fixed point: the floor can move downstream ops, which normally
		// leaves the pure cond chain untouched; iterate defensively for
		// conds that read memory.
		for i := 0; i < 5; i++ {
			d2, c2 := s.computeStarts(g, condStage)
			stable := c2 == condStage
			depth, condStage = d2, c2
			if stable {
				break
			}
		}
	}
	*gs = GraphSched{G: g, Depth: depth, CondStage: condStage, Stages: make([]StageInfo, depth)}

	// WaitStage first collects the waits (noteWait's encoding), then
	// holds each VLO's settled wait stage.
	wait := s.WaitStage
	noteWaits(wait, g, live, start)
	// counts[3*st+i]: stage st's Pure (i=0), Issue (1) and WaitBefore (2)
	// lengths, so that the three lists are carved from one slice.
	counts := make([]int, 3*depth)
	total := 0
	for _, n := range g.Nodes {
		if !live[n.ID] {
			continue
		}
		st := start[n.ID]
		if !n.Op.IsVLO() {
			counts[3*st]++
			total++
			continue
		}
		waitAt := wait[n.ID] - 1
		if waitAt < 0 || waitAt > depth-1 {
			waitAt = depth - 1
		}
		if waitAt <= st {
			waitAt = min(st+1, depth-1)
		}
		wait[n.ID] = waitAt
		counts[3*st+1]++
		counts[3*waitAt+2]++
		total += 2
	}
	slab := make([]*ir.Node, total)
	for i := range gs.Stages {
		info := &gs.Stages[i]
		info.Pure, slab = carve(slab, counts[3*i])
		info.Issue, slab = carve(slab, counts[3*i+1])
		info.WaitBefore, slab = carve(slab, counts[3*i+2])
	}

	// Node order is ID order, so every list comes out sorted by ID.
	for _, n := range g.Nodes {
		if !live[n.ID] {
			continue
		}
		info := &gs.Stages[start[n.ID]]
		if n.Op.IsVLO() {
			info.Issue = append(info.Issue, n)
			info.Reordering = true
			ws := &gs.Stages[wait[n.ID]]
			ws.WaitBefore = append(ws.WaitBefore, n)
			continue
		}
		info.Pure = append(info.Pure, n)
		switch {
		case n.Op.IsFloatArith() && (n.Kind == ir.KindFloat || n.Kind == ir.KindVec):
			info.FpOps++
			if n.Kind == ir.KindVec {
				info.FpLanes += n.Lanes
			} else {
				info.FpLanes++
			}
		case n.Op.IsIntArith() && n.Kind == ir.KindInt:
			info.IntOps++
		}
	}
	for i := range gs.Stages {
		if gs.Stages[i].Reordering || len(gs.Stages[i].WaitBefore) > 0 {
			gs.Stages[i].Reordering = true
			gs.NumReordering++
		}
	}
}

// carve splits an empty list of capacity n off the front of slab.
func carve(slab []*ir.Node, n int) (list, rest []*ir.Node) {
	return slab[:0:n], slab[n:]
}

// Validate checks schedule invariants:
//
//   - every graph of the kernel has a schedule, the node tables cover
//     the kernel, and every live node is placed in exactly one stage slot
//     (Pure or Issue) at its start stage within the pipeline depth;
//   - each stage lists its pure ops in ID (topological) order;
//   - def-before-use across stages: args, predicates and effect deps of a
//     node complete no later than the node's start stage;
//   - VLO wait barriers are ordered (issue stage <= wait stage < depth),
//     registered in the stage's WaitBefore list, and no consumer of a
//     VLO's value enters the pipeline before the barrier;
//   - reordering flags and the NumReordering count match the stages'
//     contents;
//   - the loop-exit decision is known inside the pipeline and no
//     side-effecting op starts before it;
//   - port conflicts: a single stage never issues two memory VLOs on the
//     same array where one is a store (conflicting accesses must be
//     effect-ordered into distinct stages).
func (s *Schedule) Validate() error {
	for _, g := range s.K.CollectGraphs() {
		if g.ID < 0 || g.ID >= len(s.graphs) || s.graphs[g.ID].G != g {
			return fmt.Errorf("schedule: graph %s(#%d) has no schedule", g.Name, g.ID)
		}
	}
	nn := s.K.NumNodes()
	if len(s.Live) != nn || len(s.Start) != nn || len(s.Lat) != nn || len(s.WaitStage) != nn {
		return fmt.Errorf("schedule: node tables do not cover the kernel's %d nodes", nn)
	}
	// By node ID: the stage + 1 each live node was placed in by the stage
	// lists, and the earliest stage + 1 anything waits on it (noteWait).
	scratch := make([]int, 2*nn)
	placedAt, minWait := scratch[:nn], scratch[nn:]
	place := func(n *ir.Node, i int) error {
		if n.ID < 0 || n.ID >= nn {
			return fmt.Errorf("schedule: stage %d lists n%d, which is not a node of the kernel", i, n.ID)
		}
		if placedAt[n.ID] != 0 {
			return fmt.Errorf("schedule: n%d placed in two stages", n.ID)
		}
		placedAt[n.ID] = i + 1
		return nil
	}
	for gi := range s.graphs {
		gs := &s.graphs[gi]
		for i := range gs.Stages {
			info := &gs.Stages[i]
			for j, n := range info.Pure {
				if n.Op.IsVLO() {
					return fmt.Errorf("schedule: VLO n%d listed as pure in stage %d", n.ID, i)
				}
				// The engine evaluates a stage's pure ops in list order.
				if j > 0 && info.Pure[j-1].ID >= n.ID {
					return fmt.Errorf("schedule: stage %d evaluates n%d after n%d", i, n.ID, info.Pure[j-1].ID)
				}
				if err := place(n, i); err != nil {
					return err
				}
			}
			for _, n := range info.Issue {
				if !n.Op.IsVLO() {
					return fmt.Errorf("schedule: non-VLO n%d in issue list of stage %d", n.ID, i)
				}
				if err := place(n, i); err != nil {
					return err
				}
			}
			wantReorder := len(info.Issue) > 0 || len(info.WaitBefore) > 0
			if info.Reordering != wantReorder {
				return fmt.Errorf("schedule: stage %d reordering flag %v, contents say %v", i, info.Reordering, wantReorder)
			}
			// Port conflicts: unordered same-stage accesses to one array
			// with a writer among them.
			for ai, a := range info.Issue {
				if !a.Op.IsMemory() || a.Arr == nil {
					continue
				}
				for _, b := range info.Issue[ai+1:] {
					if !b.Op.IsMemory() || b.Arr == nil {
						continue
					}
					if a.Arr.Space != b.Arr.Space {
						continue
					}
					same := false
					if a.Arr.Space == ir.SpaceLocal {
						same = a.Arr.LocalID == b.Arr.LocalID
					} else {
						same = a.Arr.Name == b.Arr.Name
					}
					if same && (a.Op == ir.OpStore || b.Op == ir.OpStore) {
						return fmt.Errorf("schedule: stage %d issues conflicting accesses n%d and n%d to array %s",
							i, a.ID, b.ID, a.Arr)
					}
				}
			}
		}
		// Recompute the earliest stage at which anything depends on each
		// VLO having completed, with buildGraph's own noteWaits.
		noteWaits(minWait, gs.G, s.Live, s.Start)
		ready := func(d *ir.Node) int { return s.Start[d.ID] + s.Lat[d.ID] }
		for _, n := range gs.G.Nodes {
			if !s.Live[n.ID] {
				continue
			}
			st := s.Start[n.ID]
			if st < 0 || st >= gs.Depth {
				return fmt.Errorf("schedule: n%d stage %d beyond depth %d", n.ID, st, gs.Depth)
			}
			if at := placedAt[n.ID]; at == 0 {
				return fmt.Errorf("schedule: live node n%d missing from every stage", n.ID)
			} else if at-1 != st {
				return fmt.Errorf("schedule: n%d starts at stage %d but is listed in stage %d", n.ID, st, at-1)
			}
			for _, a := range n.Args {
				if ready(a) > st {
					return fmt.Errorf("schedule: n%d at stage %d before arg n%d ready (%d)",
						n.ID, st, a.ID, ready(a))
				}
			}
			if p := n.Pred; p != nil {
				if ready(p) > st {
					return fmt.Errorf("schedule: n%d at stage %d before predicate n%d ready (%d)",
						n.ID, st, p.ID, ready(p))
				}
			}
			for _, d := range n.EffectDeps {
				if !s.Live[d.ID] {
					continue
				}
				if ready(d) > st {
					return fmt.Errorf("schedule: n%d at stage %d before effect dep n%d done (%d)",
						n.ID, st, d.ID, ready(d))
				}
			}
			if gs.G.Cond != nil && hasSideEffect(n.Op) && st < gs.CondStage {
				return fmt.Errorf("schedule: side-effecting n%d at stage %d before loop-exit decision (stage %d)",
					n.ID, st, gs.CondStage)
			}
			if !n.Op.IsVLO() {
				continue
			}
			ws := s.WaitStage[n.ID]
			if ws < st || ws > gs.Depth-1 {
				return fmt.Errorf("schedule: VLO n%d issued at stage %d waits at stage %d (depth %d)",
					n.ID, st, ws, gs.Depth)
			}
			found := 0
			for _, w := range gs.Stages[ws].WaitBefore {
				if w == n {
					found++
				}
			}
			if found != 1 {
				return fmt.Errorf("schedule: VLO n%d appears %d times in WaitBefore of stage %d", n.ID, found, ws)
			}
			if mw := minWait[n.ID]; mw != 0 && ws > mw-1 {
				return fmt.Errorf("schedule: VLO n%d wait stage %d is after its first consumer (stage %d)",
					n.ID, ws, mw-1)
			}
		}
		if gs.G.Cond != nil && gs.CondStage >= gs.Depth {
			return fmt.Errorf("schedule: loop-exit decision at stage %d beyond depth %d", gs.CondStage, gs.Depth)
		}
		reorder := 0
		for i := range gs.Stages {
			if gs.Stages[i].Reordering {
				reorder++
			}
		}
		if reorder != gs.NumReordering {
			return fmt.Errorf("schedule: NumReordering %d but %d stages reorder", gs.NumReordering, reorder)
		}
	}
	return nil
}
