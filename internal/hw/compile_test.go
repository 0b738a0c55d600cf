package hw

import (
	"fmt"
	"testing"

	"paravis/internal/ir"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

const sumSrc = `
void f(float* A, float* out, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:out[0:1]) num_threads(2)
  {
    float s = 0.0f;
    for (int i = 0; i < n; i++) {
      s += A[i];
    }
    #pragma omp critical
    {
      out[0] = s;
    }
  }
}
`

func compileSum(t testing.TB) *CKernel {
	t.Helper()
	ck, err := compileSource(sumSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestCompileStructure(t *testing.T) {
	ck := compileSum(t)
	if len(ck.Graphs) != 2 {
		t.Fatalf("graphs = %d", len(ck.Graphs))
	}
	top := ck.Graphs[0]
	loop := ck.Graphs[1]
	if top.CondIdx != -1 {
		t.Errorf("top cond idx = %d", top.CondIdx)
	}
	if loop.CondIdx < 0 {
		t.Errorf("loop has no cond")
	}
	if loop.NumCarry != 2 { // s, i
		t.Errorf("loop carries = %d", loop.NumCarry)
	}
	for i, pos := range loop.CarryPos {
		if pos < 0 {
			t.Errorf("carry %d has no node position", i)
		}
	}
	// The loop node in top must have Outs wired to LoopOut positions.
	var loopNode *CNode
	for i := range top.Nodes {
		if top.Nodes[i].Op == ir.OpLoopOp {
			loopNode = &top.Nodes[i]
		}
	}
	if loopNode == nil {
		t.Fatal("no loop node in top")
	}
	if len(loopNode.Outs) == 0 {
		t.Error("loop node has no outs (s must flow to the store)")
	}
	for _, out := range loopNode.Outs {
		if top.Nodes[out.Pos].Op != ir.OpLoopOut {
			t.Errorf("out %d points at %s", out.Pos, top.Nodes[out.Pos].Op)
		}
	}
}

func TestCompileGlobalsResolved(t *testing.T) {
	ck := compileSum(t)
	if ck.GlobalIndex("A") < 0 || ck.GlobalIndex("out") < 0 {
		t.Fatalf("globals = %v", ck.GlobalNames)
	}
	if ck.GlobalIndex("nope") != -1 {
		t.Error("unknown global should be -1")
	}
	for _, cg := range ck.Graphs {
		for i := range cg.Nodes {
			cn := &cg.Nodes[i]
			if cn.Live && cn.Op.IsMemory() && cn.Space == ir.SpaceExternal {
				if cn.GlobalIdx < 0 {
					t.Errorf("memory node %d has unresolved global", i)
				}
			}
		}
	}
}

func TestCompileWaitStages(t *testing.T) {
	ck := compileSum(t)
	for _, cg := range ck.Graphs {
		for i := range cg.Nodes {
			cn := &cg.Nodes[i]
			if !cn.Live || !cn.Op.IsVLO() {
				continue
			}
			if cn.WaitStage <= cn.Stage && cg.Depth > 1 {
				t.Errorf("graph %s node %d: wait %d <= issue %d", cg.Name, i, cn.WaitStage, cn.Stage)
			}
			if int(cn.WaitStage) >= cg.Depth {
				t.Errorf("graph %s node %d: wait %d beyond depth %d", cg.Name, i, cn.WaitStage, cg.Depth)
			}
		}
	}
}

func TestCompileStageTables(t *testing.T) {
	ck := compileSum(t)
	for _, cg := range ck.Graphs {
		seen := map[int32]bool{}
		for si := range cg.Stages {
			for _, pos := range cg.Stages[si].Pure {
				if seen[pos] {
					t.Errorf("node %d appears in two stages", pos)
				}
				seen[pos] = true
				if int(cg.Nodes[pos].Stage) != si {
					t.Errorf("node %d stage mismatch", pos)
				}
			}
			for _, pos := range cg.Stages[si].Issue {
				if !cg.Nodes[pos].Op.IsVLO() {
					t.Errorf("non-VLO %d in issue list", pos)
				}
			}
		}
	}
}

func TestStatistics(t *testing.T) {
	ck := compileSum(t)
	st := ck.Statistics()
	if st.Graphs != 2 {
		t.Errorf("graphs = %d", st.Graphs)
	}
	if st.TotalStages == 0 || st.LiveNodes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.MemPorts != 2 { // load A, store out
		t.Errorf("mem ports = %d", st.MemPorts)
	}
	if st.ReorderingStages == 0 {
		t.Error("no reordering stages despite VLOs")
	}
	if st.FpUnits == 0 {
		t.Error("no FP units counted")
	}
}

// keepLive stores every given value into a local array, so the scheduler
// places the nodes computing them in a stage instead of dropping them as
// dead.
func keepLive(b *ir.Builder, vals ...*ir.Node) {
	sink := &ir.ArrayRef{Space: ir.SpaceLocal, Name: "sink", ElemWords: 1}
	idx := b.ConstInt(0)
	for _, v := range vals {
		b.Store(sink, idx, v, 1)
	}
}

// scheduleHandGraph wraps a single hand-built top graph in a kernel,
// validates it and schedules it.
func scheduleHandGraph(t *testing.T, b *ir.Builder) (*ir.Kernel, *schedule.Schedule) {
	t.Helper()
	k := &ir.Kernel{
		Name: "t", NumThreads: 1, Top: b.Graph(),
		Locals: []ir.LocalArray{{Name: "sink", ElemWords: 1, NumElems: 1}},
	}
	if err := ir.Validate(k); err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(k, schedule.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, s
}

func TestEvalPureOps(t *testing.T) {
	// Build a tiny graph by hand to exercise the stage closures.
	var nodes ir.Alloc
	b := ir.NewBuilder(0, "g", &nodes)
	ci := b.ConstInt(7)
	cf := b.ConstFloat(2.5)
	cj := b.ConstInt(3)
	add := b.Bin(ir.OpAdd, ci, cj)
	mul := b.Bin(ir.OpMul, ci, cj)
	div := b.Bin(ir.OpDiv, ci, cj)
	rem := b.Bin(ir.OpRem, ci, cj)
	zero := b.ConstInt(0)
	divz := b.Bin(ir.OpDiv, ci, zero)
	lt := b.Bin(ir.OpLt, ci, cj)
	conv := b.IntToFloat(ci)
	fmul := b.Bin(ir.OpMul, cf, conv)
	spl := b.Splat(cf, 4)
	ins := b.Insert(spl, cj, b.ConstFloat(9))
	ext := b.Extract(ins, cj)
	extWrap := b.Extract(ins, b.ConstInt(7)) // wraps to lane 3
	sel := b.Select(lt, ci, cj)
	not := b.Not(lt)
	keepLive(b, add, mul, div, rem, divz, fmul, ext, extWrap, sel, not)

	ck, err := Compile(scheduleHandGraph(t, b))
	if err != nil {
		t.Fatal(err)
	}
	cg := ck.Graphs[0]
	vals := make([]Value, len(cg.Nodes))
	env := &ExecEnv{ThreadID: 5, NumThreads: 8}
	for si := range cg.Stages {
		if eval := cg.Stages[si].Eval; eval != nil {
			eval(vals, env)
		}
	}
	at := func(n *ir.Node) Value { return vals[n.ID] }
	if at(add).I != 10 || at(mul).I != 21 || at(div).I != 2 || at(rem).I != 1 {
		t.Errorf("int arith wrong: %v %v %v %v", at(add).I, at(mul).I, at(div).I, at(rem).I)
	}
	if at(divz).I != 0 {
		t.Errorf("div by zero = %d, want harmless 0", at(divz).I)
	}
	if at(lt).I != 0 {
		t.Errorf("7<3 = %d", at(lt).I)
	}
	if at(fmul).F != 2.5*7 {
		t.Errorf("fmul = %v", at(fmul).F)
	}
	if at(ins).V[3] != 9 || at(ins).V[0] != 2.5 {
		t.Errorf("insert = %v", at(ins).V)
	}
	if at(ext).F != 9 {
		t.Errorf("extract = %v", at(ext).F)
	}
	if at(extWrap).F != 9 { // lane 7 wraps to 3
		t.Errorf("wrapped extract = %v", at(extWrap).F)
	}
	if at(sel).I != 3 {
		t.Errorf("select = %d", at(sel).I)
	}
	if at(not).I != 1 {
		t.Errorf("not = %d", at(not).I)
	}
}

// Float modulo has no closure. ir.Validate (run by scheduleHandGraph)
// rejects it, so the test flips an int remainder to float after
// scheduling; Compile must fail naming graph and node.
func TestCompileRejectsFloatRem(t *testing.T) {
	var nodes ir.Alloc
	b := ir.NewBuilder(0, "g", &nodes)
	rem := b.Bin(ir.OpRem, b.ConstInt(7), b.ConstInt(2))
	keepLive(b, rem)
	k, s := scheduleHandGraph(t, b)
	rem.Kind = ir.KindFloat
	_, err := Compile(k, s)
	want := fmt.Sprintf("hw: graph g n@%d: no stage closure for float rem", rem.ID)
	if err == nil || err.Error() != want {
		t.Fatalf("Compile error = %v, want %q", err, want)
	}
}

// TestCoastBounds checks CoastTo on the seed kernels against its
// definition: from each stage s the run reaches exactly as far as stages
// that issue nothing go without a loop-exit move, within the graph.
func TestCoastBounds(t *testing.T) {
	for _, u := range workloads.Units() {
		ck, err := compileSource(u.Source, u.Defines)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		runs := 0
		for _, cg := range ck.Graphs {
			if len(cg.CoastTo) != cg.Depth {
				t.Fatalf("%s/%s: %d bounds for %d stages", u.Name, cg.Name, len(cg.CoastTo), cg.Depth)
			}
			for s := 0; s < cg.Depth; s++ {
				want := s
				for want+1 < cg.Depth && int32(want) != cg.CheckAt && len(cg.Stages[want+1].Issue) == 0 {
					want++
				}
				if got := int(cg.CoastTo[s]); got != want {
					t.Errorf("%s/%s: CoastTo[%d] = %d, want %d", u.Name, cg.Name, s, got, want)
				}
				if want > s {
					runs++
				}
			}
		}
		if runs == 0 {
			t.Errorf("%s: no stage can coast", u.Name)
		}
	}
}
