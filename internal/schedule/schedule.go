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
	"sort"

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
	Live  map[*ir.Node]bool
	Start map[*ir.Node]int
	Lat   map[*ir.Node]int
	// WaitStage maps each VLO to the first stage a token may not enter
	// until the VLO has completed: the earliest stage of any consumer of
	// its value or of any operation ordered after it. VLOs nobody waits on
	// within the iteration gate only the iteration end (Depth-1) — this is
	// what lets an independent prefetch loop overlap a compute loop
	// (double buffering, Fig. 9).
	WaitStage map[*ir.Node]int
	Depth     int
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

// Schedule is the full kernel schedule.
type Schedule struct {
	K       *ir.Kernel
	Cfg     Config
	ByGraph map[*ir.Graph]*GraphSched
}

// TotalStages sums pipeline depths across all graphs.
func (s *Schedule) TotalStages() int {
	n := 0
	for _, gs := range s.ByGraph {
		n += gs.Depth
	}
	return n
}

// Build computes the schedule of every graph in the kernel.
func Build(k *ir.Kernel, cfg Config) (*Schedule, error) {
	if err := ir.Validate(k); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	s := &Schedule{K: k, Cfg: cfg, ByGraph: make(map[*ir.Graph]*GraphSched)}
	for _, g := range k.CollectGraphs() {
		gs, err := buildGraph(g, cfg)
		if err != nil {
			return nil, fmt.Errorf("schedule: graph %s(#%d): %w", g.Name, g.ID, err)
		}
		s.ByGraph[g] = gs
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

// liveNodes marks the nodes that must execute: side-effecting VLOs, the
// loop condition, carry updates, and everything they transitively depend
// on. Dead pure nodes (e.g. unused loop outputs) consume no stage, no
// hardware and no interpreter time.
func liveNodes(g *ir.Graph) map[*ir.Node]bool {
	live := make(map[*ir.Node]bool)
	var mark func(n *ir.Node)
	mark = func(n *ir.Node) {
		if n == nil || live[n] {
			return
		}
		live[n] = true
		for _, a := range n.Args {
			mark(a)
		}
		for _, d := range n.EffectDeps {
			mark(d)
		}
		mark(n.Pred)
	}
	for _, n := range g.Nodes {
		switch n.Op {
		case ir.OpStore, ir.OpLock, ir.OpUnlock, ir.OpBarrier, ir.OpLoopOp:
			mark(n)
		}
	}
	mark(g.Cond)
	for _, u := range g.CarryUpdate {
		mark(u)
	}
	return live
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

func buildGraph(g *ir.Graph, cfg Config) (*GraphSched, error) {
	live := liveNodes(g)
	lats := make(map[*ir.Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		if live[n] {
			lats[n] = latency(n, cfg.Lat)
		}
	}

	// ASAP scheduling with an extra floor for side-effecting ops: they may
	// not start before the loop-continue decision is known (minEffect),
	// so an exiting iteration never mutates state.
	computeStarts := func(minEffect int) (map[*ir.Node]int, int, int) {
		start := make(map[*ir.Node]int, len(g.Nodes))
		depth := 1
		for _, n := range g.Nodes {
			if !live[n] {
				continue
			}
			st := 0
			ready := func(d *ir.Node) int { return start[d] + lats[d] }
			for _, a := range n.Args {
				if r := ready(a); r > st {
					st = r
				}
			}
			for _, d := range n.EffectDeps {
				if !live[d] {
					// Dead effect deps (dropped speculative loads) impose
					// no ordering.
					continue
				}
				if r := ready(d); r > st {
					st = r
				}
			}
			if n.Pred != nil {
				if r := ready(n.Pred); r > st {
					st = r
				}
			}
			if hasSideEffect(n.Op) && st < minEffect {
				st = minEffect
			}
			start[n] = st
			if st+lats[n] > depth {
				depth = st + lats[n]
			}
			// Zero-latency nodes (e.g. LoopOut wires) still occupy a
			// stage slot.
			if st >= depth {
				depth = st + 1
			}
		}
		condStage := 0
		if g.Cond != nil {
			condStage = start[g.Cond] + lats[g.Cond]
			if condStage >= depth {
				depth = condStage + 1
			}
		}
		return start, depth, condStage
	}

	start, depth, condStage := computeStarts(0)
	if g.Cond != nil {
		// Fixed point: the floor can move downstream ops, which normally
		// leaves the pure cond chain untouched; iterate defensively for
		// conds that read memory.
		for i := 0; i < 5; i++ {
			s2, d2, c2 := computeStarts(condStage)
			stable := c2 == condStage
			start, depth, condStage = s2, d2, c2
			if stable {
				break
			}
		}
	}

	gs := &GraphSched{
		G:         g,
		Live:      live,
		Start:     start,
		Lat:       lats,
		WaitStage: make(map[*ir.Node]int),
		Depth:     depth,
		CondStage: condStage,
		Stages:    make([]StageInfo, depth),
	}

	// Wait stages: the earliest stage of any node that consumes a VLO's
	// value, is predicated on it, or is effect-ordered after it. LoopOut
	// nodes are zero-latency readers, so their own consumers matter.
	wait := make(map[*ir.Node]int, 8)
	noteWait := func(dep *ir.Node, at int) {
		if !dep.Op.IsVLO() {
			// A LoopOut forwards its loop's completion requirement.
			if dep.Op == ir.OpLoopOut {
				lp := dep.Args[0]
				if w, ok := wait[lp]; !ok || at < w {
					wait[lp] = at
				}
			}
			return
		}
		if w, ok := wait[dep]; !ok || at < w {
			wait[dep] = at
		}
	}
	for _, n := range g.Nodes {
		if !live[n] {
			continue
		}
		if n.Op != ir.OpLoopOut {
			// LoopOut is a zero-latency wire off the loop's result
			// registers; only its own consumers impose waits (forwarded
			// through noteWait above).
			for _, a := range n.Args {
				noteWait(a, start[n])
			}
		}
		if n.Pred != nil {
			noteWait(n.Pred, start[n])
		}
		for _, d := range n.EffectDeps {
			if live[d] {
				noteWait(d, start[n])
			}
		}
	}

	for _, n := range g.Nodes {
		if !live[n] {
			continue
		}
		st := start[n]
		info := &gs.Stages[st]
		if n.Op.IsVLO() {
			info.Issue = append(info.Issue, n)
			info.Reordering = true
			waitAt, ok := wait[n]
			if !ok || waitAt > depth-1 {
				waitAt = depth - 1
			}
			if waitAt <= st {
				waitAt = st + 1
				if waitAt > depth-1 {
					waitAt = depth - 1
				}
			}
			gs.WaitStage[n] = waitAt
			ws := &gs.Stages[waitAt]
			ws.WaitBefore = append(ws.WaitBefore, n)
		} else {
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
	}
	for i := range gs.Stages {
		sortNodes(gs.Stages[i].Pure)
		sortNodes(gs.Stages[i].Issue)
		sortNodes(gs.Stages[i].WaitBefore)
		if gs.Stages[i].Reordering || len(gs.Stages[i].WaitBefore) > 0 {
			gs.Stages[i].Reordering = true
			gs.NumReordering++
		}
	}
	return gs, nil
}

// sortNodes orders nodes by ID for determinism (map iteration above is
// already avoided, but builder order plus ID sort keeps goldens stable).
func sortNodes(ns []*ir.Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
}

// Validate checks schedule invariants:
//
//   - every graph of the kernel has a schedule, and every live node is
//     placed in exactly one stage slot (Pure or Issue) at its start stage
//     within the pipeline depth;
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
		if s.ByGraph[g] == nil {
			return fmt.Errorf("schedule: graph %s(#%d) has no schedule", g.Name, g.ID)
		}
	}
	for _, gs := range s.ByGraph {
		// Where each live node was placed by the stage lists.
		placedAt := map[*ir.Node]int{}
		for i := range gs.Stages {
			info := &gs.Stages[i]
			for _, n := range info.Pure {
				if n.Op.IsVLO() {
					return fmt.Errorf("schedule: VLO n%d listed as pure in stage %d", n.ID, i)
				}
				if _, dup := placedAt[n]; dup {
					return fmt.Errorf("schedule: n%d placed in two stages", n.ID)
				}
				placedAt[n] = i
			}
			for _, n := range info.Issue {
				if !n.Op.IsVLO() {
					return fmt.Errorf("schedule: non-VLO n%d in issue list of stage %d", n.ID, i)
				}
				if _, dup := placedAt[n]; dup {
					return fmt.Errorf("schedule: n%d placed in two stages", n.ID)
				}
				placedAt[n] = i
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
		// Recompute, exactly as buildGraph does, the earliest stage at
		// which anything depends on each VLO having completed.
		minWait := map[*ir.Node]int{}
		noteWait := func(dep *ir.Node, at int) {
			if !dep.Op.IsVLO() {
				if dep.Op == ir.OpLoopOut {
					lp := dep.Args[0]
					if w, ok := minWait[lp]; !ok || at < w {
						minWait[lp] = at
					}
				}
				return
			}
			if w, ok := minWait[dep]; !ok || at < w {
				minWait[dep] = at
			}
		}
		for _, n := range gs.G.Nodes {
			if !gs.Live[n] {
				continue
			}
			if n.Op != ir.OpLoopOut {
				for _, a := range n.Args {
					noteWait(a, gs.Start[n])
				}
			}
			if n.Pred != nil {
				noteWait(n.Pred, gs.Start[n])
			}
			for _, d := range n.EffectDeps {
				if gs.Live[d] {
					noteWait(d, gs.Start[n])
				}
			}
		}
		for _, n := range gs.G.Nodes {
			if !gs.Live[n] {
				continue
			}
			st := gs.Start[n]
			if st < 0 || st >= gs.Depth {
				return fmt.Errorf("schedule: n%d stage %d beyond depth %d", n.ID, st, gs.Depth)
			}
			if at, ok := placedAt[n]; !ok {
				return fmt.Errorf("schedule: live node n%d missing from every stage", n.ID)
			} else if at != st {
				return fmt.Errorf("schedule: n%d starts at stage %d but is listed in stage %d", n.ID, st, at)
			}
			for _, a := range n.Args {
				if gs.Start[a]+gs.Lat[a] > st {
					return fmt.Errorf("schedule: n%d at stage %d before arg n%d ready (%d)",
						n.ID, st, a.ID, gs.Start[a]+gs.Lat[a])
				}
			}
			if p := n.Pred; p != nil {
				if gs.Start[p]+gs.Lat[p] > st {
					return fmt.Errorf("schedule: n%d at stage %d before predicate n%d ready (%d)",
						n.ID, st, p.ID, gs.Start[p]+gs.Lat[p])
				}
			}
			for _, d := range n.EffectDeps {
				if !gs.Live[d] {
					continue
				}
				if gs.Start[d]+gs.Lat[d] > st {
					return fmt.Errorf("schedule: n%d at stage %d before effect dep n%d done (%d)",
						n.ID, st, d.ID, gs.Start[d]+gs.Lat[d])
				}
			}
			if gs.G.Cond != nil && hasSideEffect(n.Op) && st < gs.CondStage {
				return fmt.Errorf("schedule: side-effecting n%d at stage %d before loop-exit decision (stage %d)",
					n.ID, st, gs.CondStage)
			}
			if !n.Op.IsVLO() {
				continue
			}
			ws, ok := gs.WaitStage[n]
			if !ok {
				return fmt.Errorf("schedule: VLO n%d has no wait stage", n.ID)
			}
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
			if mw, ok := minWait[n]; ok && ws > mw {
				return fmt.Errorf("schedule: VLO n%d wait stage %d is after its first consumer (stage %d)",
					n.ID, ws, mw)
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
