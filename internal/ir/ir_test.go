package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildMiniKernel constructs a small valid kernel by hand: a top graph with
// one loop that sums a global array.
func buildMiniKernel() *Kernel {
	var nodes Alloc
	k := &Kernel{
		Name:        "mini",
		NumThreads:  2,
		VectorLanes: 4,
		Params: []Param{
			{Name: "A", Pointer: true},
			{Name: "n"},
		},
		Maps: []Map{
			{Dir: MapTo, Name: "A", Low: ConstExpr(0), Len: ParamExpr("n")},
		},
	}
	arrA := &ArrayRef{Space: SpaceExternal, Name: "A", ElemWords: 1}

	// Loop body: i < n; s += A[i]; i++
	lb := NewBuilder(1, "loop", &nodes)
	i := lb.Carry(0, KindInt, 0)
	s := lb.Carry(1, KindFloat, 0)
	n := lb.Param("n", KindInt)
	cond := lb.Bin(OpLt, i, n)
	ld := lb.Load(arrA, i, KindFloat, 0, 1)
	s2 := lb.Bin(OpAdd, s, ld)
	one := lb.ConstInt(1)
	i2 := lb.Bin(OpAdd, i, one)
	loopG := lb.Graph()
	loopG.Cond = cond
	loopG.CarryUpdate = []*Node{i2, s2}

	tb := NewBuilder(0, "top", &nodes)
	zero := tb.ConstInt(0)
	fzero := tb.ConstFloat(0)
	loop := tb.Loop(loopG, zero, fzero)
	sum := tb.LoopOut(loop, 1, KindFloat, 0)
	st := tb.Store(arrA, tb.ConstInt(0), sum, 1)
	st.EffectDeps = append(st.EffectDeps, loop)
	k.Top = tb.Graph()
	return k
}

func TestValidateMiniKernel(t *testing.T) {
	k := buildMiniKernel()
	if err := Validate(k); err != nil {
		t.Fatal(err)
	}
	if got := len(k.CollectGraphs()); got != 2 {
		t.Errorf("graphs = %d", got)
	}
	counts := make(map[Op]int)
	for _, g := range k.CollectGraphs() {
		for _, n := range g.Nodes {
			counts[n.Op]++
		}
	}
	if counts[OpLoad] != 1 || counts[OpStore] != 1 || counts[OpLoopOp] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if k.NumNodes() != len(k.Top.Nodes)+len(k.CollectGraphs()[1].Nodes) {
		t.Error("NumNodes mismatch")
	}
}

func TestValidateRejectsBadKernels(t *testing.T) {
	t.Run("no top", func(t *testing.T) {
		k := &Kernel{Name: "x", NumThreads: 1}
		if err := Validate(k); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("zero threads", func(t *testing.T) {
		k := buildMiniKernel()
		k.NumThreads = 0
		if err := Validate(k); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("forward reference", func(t *testing.T) {
		k := buildMiniKernel()
		top := k.Top
		// Make the first node reference the last (not topological).
		last := top.Nodes[len(top.Nodes)-1]
		top.Nodes[0].Args = []*Node{last}
		if err := Validate(k); err == nil || !strings.Contains(err.Error(), "topological") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("carry out of range", func(t *testing.T) {
		k := buildMiniKernel()
		g := k.CollectGraphs()[1]
		for _, n := range g.Nodes {
			if n.Op == OpCarry {
				n.Idx = 99
				break
			}
		}
		if err := Validate(k); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("loop arg mismatch", func(t *testing.T) {
		k := buildMiniKernel()
		for _, n := range k.Top.Nodes {
			if n.Op == OpLoopOp {
				n.Args = n.Args[:1]
			}
		}
		if err := Validate(k); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("store without array", func(t *testing.T) {
		k := buildMiniKernel()
		for _, n := range k.Top.Nodes {
			if n.Op == OpStore {
				n.Arr = nil
			}
		}
		if err := Validate(k); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("unmapped global", func(t *testing.T) {
		k := buildMiniKernel()
		for _, n := range k.Top.Nodes {
			if n.Op == OpStore {
				n.Arr = &ArrayRef{Space: SpaceExternal, Name: "nope", ElemWords: 1}
			}
		}
		if err := Validate(k); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("sem out of range", func(t *testing.T) {
		k := buildMiniKernel()
		nodes := Alloc{next: k.NumNodes()}
		b := NewBuilder(9, "x", &nodes)
		lk := b.Lock(3)
		k.Top.Nodes = append(k.Top.Nodes, lk)
		if err := Validate(k); err == nil || !strings.Contains(err.Error(), "semaphore 3") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("node id outside the kernel", func(t *testing.T) {
		k := buildMiniKernel()
		k.Top.Nodes[len(k.Top.Nodes)-1].ID = k.NumNodes()
		if err := Validate(k); err == nil || !strings.Contains(err.Error(), "outside [0,") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("ids descend", func(t *testing.T) {
		k := buildMiniKernel()
		top := k.Top.Nodes
		top[0].ID, top[1].ID = top[1].ID, top[0].ID
		if err := Validate(k); err == nil || !strings.Contains(err.Error(), "IDs must ascend") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("graph id not its pre-order position", func(t *testing.T) {
		k := buildMiniKernel()
		k.CollectGraphs()[1].ID = 2
		if err := Validate(k); err == nil || !strings.Contains(err.Error(), "pre-order position 1") {
			t.Fatalf("got %v", err)
		}
	})
}

// TestBuilderSlabs: nodes and argument lists come from the kernel's slabs,
// IDs count up across builders, and an append to one node's Args never
// writes into its neighbour's.
func TestBuilderSlabs(t *testing.T) {
	var nodes Alloc
	b1, b2 := NewBuilder(0, "a", &nodes), NewBuilder(1, "b", &nodes)
	x, y := b1.ConstInt(1), b2.ConstInt(2)
	sum := b1.Bin(OpAdd, x, x)
	diff := b1.Bin(OpSub, x, x)
	if x.ID != 0 || y.ID != 1 || sum.ID != 2 || diff.ID != 3 {
		t.Fatalf("ids %d %d %d %d, want 0..3", x.ID, y.ID, sum.ID, diff.ID)
	}
	if cap(sum.Args) != len(sum.Args) {
		t.Fatalf("Args cap %d, len %d", cap(sum.Args), len(sum.Args))
	}
	sum.Args = append(sum.Args, y)
	if diff.Args[0] != x || diff.Args[1] != x {
		t.Fatal("an append to one node's Args overwrote its neighbour's")
	}
	if allocs := testing.AllocsPerRun(100, func() { b1.Bin(OpMul, x, x) }); allocs != 0 {
		t.Errorf("a node costs %.0f allocations, want less than one (its share of a slab)", allocs)
	}
}

func TestGraphIndex(t *testing.T) {
	k := buildMiniKernel()
	loop := k.CollectGraphs()[1]
	for i, n := range k.Top.Nodes {
		if got := k.Top.Index(n); got != i {
			t.Errorf("Index(n%d) = %d, want %d", n.ID, got, i)
		}
		if got := loop.Index(n); got != -1 {
			t.Errorf("loop graph Index(n%d) = %d, want -1 (a node of another graph)", n.ID, got)
		}
	}
	if got := k.Top.Index(nil); got != -1 {
		t.Errorf("Index(nil) = %d", got)
	}
}

func TestScalarExprs(t *testing.T) {
	env := map[string]int64{"DIM": 8}
	e := &BinExpr{Op: OpMul, L: ParamExpr("DIM"), R: ParamExpr("DIM")}
	v, err := e.Eval(env)
	if err != nil || v != 64 {
		t.Fatalf("DIM*DIM = %d (%v)", v, err)
	}
	if _, err := ParamExpr("missing").Eval(env); err == nil {
		t.Error("expected unknown-parameter error")
	}
	if _, err := (&BinExpr{Op: OpDiv, L: ConstExpr(1), R: ConstExpr(0)}).Eval(env); err == nil {
		t.Error("expected division-by-zero error")
	}
	sub := &BinExpr{Op: OpSub, L: ConstExpr(10), R: ConstExpr(4)}
	if v, _ := sub.Eval(nil); v != 6 {
		t.Errorf("10-4 = %d", v)
	}
	add := &BinExpr{Op: OpAdd, L: ConstExpr(10), R: ConstExpr(4)}
	if v, _ := add.Eval(nil); v != 14 {
		t.Errorf("10+4 = %d", v)
	}
	rem := &BinExpr{Op: OpRem, L: ConstExpr(10), R: ConstExpr(4)}
	if v, _ := rem.Eval(nil); v != 2 {
		t.Errorf("10%%4 = %d", v)
	}
}

// Property: ScalarExpr evaluation is deterministic and BinExpr obeys the
// integer semantics of its operator.
func TestScalarExprProperty(t *testing.T) {
	f := func(a, b int32, opSel uint8) bool {
		ops := []Op{OpAdd, OpSub, OpMul}
		op := ops[int(opSel)%len(ops)]
		e := &BinExpr{Op: op, L: ConstExpr(int64(a)), R: ConstExpr(int64(b))}
		v, err := e.Eval(nil)
		if err != nil {
			return false
		}
		switch op {
		case OpAdd:
			return v == int64(a)+int64(b)
		case OpSub:
			return v == int64(a)-int64(b)
		case OpMul:
			return v == int64(a)*int64(b)
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpPredicates(t *testing.T) {
	for _, op := range []Op{OpLoad, OpStore, OpLock, OpUnlock, OpBarrier, OpLoopOp} {
		if !op.IsVLO() {
			t.Errorf("%s should be VLO", op)
		}
	}
	for _, op := range []Op{OpAdd, OpMul, OpSelect, OpCarry} {
		if op.IsVLO() {
			t.Errorf("%s should not be VLO", op)
		}
	}
	if !OpLoad.IsMemory() || !OpStore.IsMemory() || OpLock.IsMemory() {
		t.Error("IsMemory misclassifies")
	}
}

func TestDumpContainsStructure(t *testing.T) {
	k := buildMiniKernel()
	d := Dump(k)
	for _, want := range []string{"kernel mini", "param A pointer=true", "graph loop", "cond n", "carry[0]", "-> graph#1"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestLocalArraySize(t *testing.T) {
	la := LocalArray{ElemWords: 4, NumElems: 16}
	if la.SizeBytes() != 256 {
		t.Errorf("size = %d", la.SizeBytes())
	}
}

func TestTypeStrings(t *testing.T) {
	if KindInt.String() != "int" || KindVec.String() != "vec" {
		t.Error("kind strings")
	}
	if SpaceExternal.String() != "external" || SpaceLocal.String() != "local" {
		t.Error("space strings")
	}
	if MapToFrom.String() != "tofrom" {
		t.Error("map dir strings")
	}
	if OpLoad.String() != "load" {
		t.Error("op strings")
	}
}
