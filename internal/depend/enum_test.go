package depend

// Brute-force soundness harness. A tiny concrete interpreter — written
// against the minic AST directly, sharing no code with the analyzer —
// executes a kernel for every thread id and records every array element
// touched, with the full loop iteration stack at the time of the
// access. From that trace the ground-truth carried dependences are
// enumerated pairwise, and the analyzer's report is checked against
// them: the analyzer may over-report (a "may" answer is always
// allowed), but any ground-truth dependence it fails to report, or any
// constant distance it reports that contradicts an observed one, is a
// soundness bug.

import (
	"fmt"
	"testing"

	"paravis/internal/minic"
)

type frameIter struct {
	name string
	iter int64
}

type event struct {
	arr   string
	elem  int64
	width int64
	write bool
	tid   int
	crit  bool
	stack []frameIter
}

type rtArr struct {
	name  string
	dram  bool
	dims  []int
	lanes int
}

type interp struct {
	env    map[string]int64
	nt     int
	tid    int
	vars   map[string]int64
	known  map[string]bool
	arrays map[string]*rtArr
	stack  []frameIter
	crit   int
	steps  int
	max    int

	events  *[]event
	aborted bool
}

// runEnum executes fn's target region once per thread id and returns
// the combined access trace. ok is false when the interpreter hit
// something outside its integer subset (or the step budget): the
// comparison must then be skipped, not failed.
func runEnum(fn *minic.FuncDecl, ts *minic.TargetStmt, env map[string]int64, maxSteps int) ([]event, bool) {
	nt := ts.NumThreads
	if nt <= 0 {
		nt = 1
	}
	var events []event
	for tid := 0; tid < nt; tid++ {
		in := &interp{
			env: env, nt: nt, tid: tid,
			vars:   map[string]int64{},
			known:  map[string]bool{},
			arrays: map[string]*rtArr{},
			max:    maxSteps,
			events: &events,
		}
		for _, p := range fn.Params {
			if p.Type.IsPointer() {
				in.arrays[p.Name] = &rtArr{name: p.Name, dram: true, lanes: 1}
			} else if v, ok := env[p.Name]; ok {
				in.vars[p.Name], in.known[p.Name] = v, true
			}
		}
		in.block(ts.Body)
		if in.aborted {
			return nil, false
		}
	}
	return events, true
}

func (in *interp) tick() bool {
	in.steps++
	if in.steps > in.max {
		in.aborted = true
	}
	return !in.aborted
}

func (in *interp) block(b *minic.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		if in.aborted {
			return
		}
		in.stmt(s)
	}
}

func (in *interp) stmt(s minic.Stmt) {
	if !in.tick() {
		return
	}
	switch st := s.(type) {
	case *minic.DeclStmt:
		if st.Typ.IsArray() {
			lanes := 1
			if st.Typ.Elem != nil && st.Typ.Elem.Lanes > 1 {
				lanes = st.Typ.Elem.Lanes
			} else if st.Typ.Lanes > 1 {
				lanes = st.Typ.Lanes
			}
			in.arrays[st.Name] = &rtArr{name: st.Name, dims: st.Typ.Dims, lanes: lanes}
			return
		}
		if st.Init != nil {
			if v, ok := in.eval(st.Init); ok {
				in.vars[st.Name], in.known[st.Name] = v, true
			} else {
				in.known[st.Name] = false
			}
		} else {
			in.vars[st.Name], in.known[st.Name] = 0, true
		}
	case *minic.ExprStmt:
		in.exec(st.X)
	case *minic.BlockStmt:
		in.block(st)
	case *minic.IfStmt:
		c, ok := in.eval(st.Cond)
		if !ok {
			in.aborted = true
			return
		}
		if c != 0 {
			in.block(st.Then)
		} else {
			in.block(st.Else)
		}
	case *minic.ForStmt:
		in.forLoop(st)
	case *minic.CriticalStmt:
		in.crit++
		in.block(st.Body)
		in.crit--
	case *minic.BarrierStmt:
		// Threads run to completion one after another; ordering does not
		// change the access sets the harness compares.
	default:
		in.aborted = true // returns / nested targets: out of subset
	}
}

func (in *interp) forLoop(st *minic.ForStmt) {
	for _, s := range st.Init {
		in.stmt(s)
		if in.aborted {
			return
		}
	}
	name := fmt.Sprintf("for@%s", st.Pos)
	in.stack = append(in.stack, frameIter{name: name, iter: 0})
	defer func() { in.stack = in.stack[:len(in.stack)-1] }()
	for {
		if !in.tick() {
			return
		}
		if st.Cond != nil {
			c, ok := in.eval(st.Cond)
			if !ok {
				in.aborted = true
				return
			}
			if c == 0 {
				return
			}
		}
		in.block(st.Body)
		for _, p := range st.Post {
			if es, ok := p.(*minic.ExprStmt); ok {
				in.exec(es.X)
			} else {
				in.aborted = true
			}
		}
		if in.aborted {
			return
		}
		in.stack[len(in.stack)-1].iter++
	}
}

// exec runs an expression for its side effects (assignments, IncDec).
func (in *interp) exec(e minic.Expr) {
	switch x := e.(type) {
	case *minic.AssignExpr:
		switch lhs := x.LHS.(type) {
		case *minic.Ident:
			rhs, rok := in.eval(x.RHS)
			if !rok {
				in.known[lhs.Name] = false
				return
			}
			if x.Op != nil {
				cur, ok := in.vars[lhs.Name], in.known[lhs.Name]
				if !ok {
					in.known[lhs.Name] = false
					return
				}
				v, ok := applyOp(*x.Op, cur, rhs)
				if !ok {
					in.aborted = true
					return
				}
				rhs = v
			}
			in.vars[lhs.Name], in.known[lhs.Name] = rhs, true
		case *minic.Index:
			in.eval(x.RHS)
			if x.Op != nil {
				in.recordIndexEv(lhs, false)
			}
			in.recordIndexEv(lhs, true)
		case *minic.VecLoad:
			in.eval(x.RHS)
			if x.Op != nil {
				in.recordVecEv(lhs, false)
			}
			in.recordVecEv(lhs, true)
		case *minic.VecElem:
			in.eval(x.RHS)
			in.laneStore(lhs)
		default:
			in.aborted = true
		}
	case *minic.IncDec:
		switch t := x.X.(type) {
		case *minic.Ident:
			if !in.known[t.Name] {
				return
			}
			if x.Inc {
				in.vars[t.Name]++
			} else {
				in.vars[t.Name]--
			}
		case *minic.Index:
			in.recordIndexEv(t, false)
			in.recordIndexEv(t, true)
		case *minic.VecElem:
			in.laneStore(t)
		default:
			in.aborted = true
		}
	default:
		in.eval(e)
	}
}

// laneStore runs a store into one lane. The lane belongs to a vector, and
// when that vector is an array element the store rewrites the element:
// it is read and written whole.
func (in *interp) laneStore(x *minic.VecElem) {
	if ix, ok := x.Vec.(*minic.Index); ok {
		in.recordIndexEv(ix, false)
		in.recordIndexEv(ix, true)
	}
	in.eval(x.Idx)
}

// eval evaluates an integer expression; array reads are recorded as
// events and evaluate to 0 (their values never feed fixture subscripts;
// when a fuzzed program does use one, the analyzer has already answered
// "may" for the non-affine subscript, so any concrete value is a valid
// witness).
func (in *interp) eval(e minic.Expr) (int64, bool) {
	if !in.tick() {
		return 0, false
	}
	switch x := e.(type) {
	case *minic.IntLit:
		return x.Value, true
	case *minic.FloatLit:
		return 0, true
	case *minic.Ident:
		if in.known[x.Name] {
			return in.vars[x.Name], true
		}
		if v, ok := in.env[x.Name]; ok {
			return v, true
		}
		return 0, false
	case *minic.Unary:
		v, ok := in.eval(x.X)
		if !ok {
			return 0, false
		}
		if x.Neg {
			return -v, true
		}
		if v == 0 {
			return 1, true
		}
		return 0, true
	case *minic.Binary:
		l, ok1 := in.eval(x.L)
		r, ok2 := in.eval(x.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		return applyOp(x.Op, l, r)
	case *minic.Cond:
		c, ok := in.eval(x.C)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return in.eval(x.A)
		}
		return in.eval(x.B)
	case *minic.Call:
		switch x.Name {
		case "omp_get_thread_num":
			return int64(in.tid), true
		case "omp_get_num_threads":
			return int64(in.nt), true
		}
		for _, a := range x.Args {
			in.eval(a)
		}
		return 0, false
	case *minic.Cast:
		return in.eval(x.X)
	case *minic.Index:
		in.recordIndexEv(x, false)
		return 0, true
	case *minic.VecLoad:
		in.recordVecEv(x, false)
		return 0, true
	case *minic.VecElem:
		in.eval(x.Vec)
		in.eval(x.Idx)
		return 0, true
	case *minic.AddrOf:
		in.eval(x.X)
		return 0, false
	}
	return 0, false
}

func applyOp(op minic.BinOp, l, r int64) (int64, bool) {
	switch op {
	case minic.OpAdd:
		return l + r, true
	case minic.OpSub:
		return l - r, true
	case minic.OpMul:
		return l * r, true
	case minic.OpDiv:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case minic.OpRem:
		if r == 0 {
			return 0, false
		}
		return l % r, true
	case minic.OpLt:
		return b2i(l < r), true
	case minic.OpLe:
		return b2i(l <= r), true
	case minic.OpGt:
		return b2i(l > r), true
	case minic.OpGe:
		return b2i(l >= r), true
	case minic.OpEq:
		return b2i(l == r), true
	case minic.OpNe:
		return b2i(l != r), true
	case minic.OpLAnd:
		return b2i(l != 0 && r != 0), true
	case minic.OpLOr:
		return b2i(l != 0 || r != 0), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// recordIndexEv mirrors the analyzer's element linearization.
func (in *interp) recordIndexEv(x *minic.Index, write bool) {
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		in.aborted = true
		return
	}
	arr, ok := in.arrays[id.Name]
	if !ok {
		for _, idx := range x.Idx {
			in.eval(idx)
		}
		return
	}
	var elem int64
	width := int64(1)
	switch {
	case arr.dram && len(x.Idx) == 1:
		v, ok := in.eval(x.Idx[0])
		if !ok {
			in.aborted = true
			return
		}
		elem = v
	case len(x.Idx) == len(arr.dims):
		v, ok := in.linearizeEv(x.Idx, arr)
		if !ok {
			return
		}
		elem, width = v, int64(arr.lanes)
	case len(x.Idx) == len(arr.dims)+1 && arr.lanes > 1:
		v, ok := in.linearizeEv(x.Idx[:len(x.Idx)-1], arr)
		if !ok {
			return
		}
		lane, ok2 := in.eval(x.Idx[len(x.Idx)-1])
		if !ok2 {
			in.aborted = true
			return
		}
		elem = v + lane
	default:
		in.aborted = true
		return
	}
	in.pushEv(arr, elem, width, write)
}

func (in *interp) linearizeEv(idx []minic.Expr, arr *rtArr) (int64, bool) {
	acc, ok := in.eval(idx[0])
	if !ok {
		in.aborted = true
		return 0, false
	}
	for i := 1; i < len(idx); i++ {
		v, ok := in.eval(idx[i])
		if !ok {
			in.aborted = true
			return 0, false
		}
		acc = acc*int64(arr.dims[i]) + v
	}
	return acc * int64(arr.lanes), true
}

func (in *interp) recordVecEv(x *minic.VecLoad, write bool) {
	id, ok := x.Base.(*minic.Ident)
	if !ok {
		in.aborted = true
		return
	}
	arr, ok := in.arrays[id.Name]
	if !ok {
		in.eval(x.Idx)
		return
	}
	v, ok := in.eval(x.Idx)
	if !ok {
		in.aborted = true
		return
	}
	width := int64(1)
	if t := x.Type(); t != nil && t.Lanes > 1 {
		width = int64(t.Lanes)
	}
	in.pushEv(arr, v, width, write)
}

func (in *interp) pushEv(arr *rtArr, elem, width int64, write bool) {
	st := make([]frameIter, len(in.stack))
	copy(st, in.stack)
	*in.events = append(*in.events, event{
		arr: arr.name, elem: elem, width: width, write: write,
		tid: in.tid, crit: in.crit > 0, stack: st,
	})
}

// soundCheck verifies the analyzer report covers every ground-truth
// dependence in the trace.
func soundCheck(t *testing.T, label string, rep *Report, events []event, dram map[string]bool) {
	t.Helper()
	for _, l := range rep.Loops {
		gtSelf := map[string]map[int64]bool{}
		gtCross := map[string]bool{}
		for i := 0; i < len(events); i++ {
			for j := i + 1; j < len(events); j++ {
				e1, e2 := events[i], events[j]
				if e1.arr != e2.arr || (!e1.write && !e2.write) {
					continue
				}
				if e1.elem+e1.width <= e2.elem || e2.elem+e2.width <= e1.elem {
					continue
				}
				d1, ok1 := frameAt(e1.stack, l.Name)
				d2, ok2 := frameAt(e2.stack, l.Name)
				if !ok1 || !ok2 || d1 != d2 || !samePrefix(e1.stack, e2.stack, d1) {
					continue
				}
				if e1.tid == e2.tid {
					if e1.stack[d1].iter != e2.stack[d2].iter {
						if gtSelf[e1.arr] == nil {
							gtSelf[e1.arr] = map[int64]bool{}
						}
						gtSelf[e1.arr][abs64(e1.stack[d1].iter-e2.stack[d2].iter)] = true
					}
				} else if l.ThreadLoop && dram[e1.arr] && !(e1.crit && e2.crit) {
					gtCross[e1.arr] = true
				}
			}
		}
		for arr, dists := range gtSelf {
			var entries []Dep
			for _, d := range l.Deps {
				if d.Array == arr && !d.CrossThread {
					entries = append(entries, d)
				}
			}
			if len(entries) == 0 {
				t.Errorf("%s: %s: ground-truth self dep on %s (distances %v) not reported",
					label, l.Name, arr, keys64(dists))
				continue
			}
			// When every reported entry pins a constant distance, the
			// observed distances must be among them.
			constrained := true
			have := map[int64]bool{}
			for _, d := range entries {
				if !d.DistKnown || d.AllIterations {
					constrained = false
				}
				have[d.Distance] = true
			}
			if constrained {
				for gd := range dists {
					if !have[gd] {
						t.Errorf("%s: %s: observed distance %d on %s not among reported %v",
							label, l.Name, gd, arr, entries)
					}
				}
			}
		}
		for arr := range gtCross {
			found := false
			for _, d := range l.Deps {
				if d.Array == arr && d.CrossThread {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: %s: ground-truth cross-thread dep on %s not reported", label, l.Name, arr)
			}
		}
	}
}

func frameAt(st []frameIter, name string) (int, bool) {
	for i, f := range st {
		if f.name == name {
			return i, true
		}
	}
	return 0, false
}

func samePrefix(a, b []frameIter, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func keys64(m map[int64]bool) []int64 {
	var out []int64
	for k := range m {
		out = append(out, k)
	}
	return out
}

// enumCompare parses src, runs both the analyzer (with and without the
// concrete env) and the interpreter, and sound-checks both reports.
func enumCompare(t *testing.T, label, src string, defines map[string]string, env map[string]int64, maxSteps int) {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{Defines: defines})
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	var fn *minic.FuncDecl
	var ts *minic.TargetStmt
	for _, f := range prog.Funcs {
		if target := minic.TargetOf(f); target != nil {
			fn, ts = f, target
			break
		}
	}
	if fn == nil {
		t.Fatalf("%s: no target region", label)
	}
	events, ok := runEnum(fn, ts, env, maxSteps)
	if !ok {
		t.Fatalf("%s: interpreter left its subset (raise maxSteps or simplify the fixture)", label)
	}
	dram := map[string]bool{}
	for _, p := range fn.Params {
		if p.Type.IsPointer() {
			dram[p.Name] = true
		}
	}
	soundCheck(t, label+"/symbolic", Analyze(fn, nil), events, dram)
	soundCheck(t, label+"/concrete", Analyze(fn, env), events, dram)
}

// The enumeration-only fixtures; the oracle test runs them too.
const miniGEMMSrc = `
void mm(float* A, float* B, float* C, int D) {
  #pragma omp target parallel map(from:C[0:D*D]) map(to:A[0:D*D], B[0:D*D]) num_threads(2)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < D; i += nt) {
      for (int j = 0; j < D; ++j) {
        float s = 0.0f;
        for (int k = 0; k < D; ++k) {
          s = s + A[i*D + k] * B[k*D + j];
        }
        C[i*D + j] = s;
      }
    }
  }
}
`

const stridedSrc = `
void sp(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:2*n]) num_threads(1)
  {
    for (int i = 0; i < n; ++i) {
      A[2*i] = A[i] + 1.0f;
    }
  }
}
`

const dist3Src = `
void d3(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    for (int i = 3; i < n; ++i) {
      A[i] = A[i - 3] * 0.5f;
    }
  }
}
`

const threadCleanSrc = `
void tc(float* A, float* B, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) map(to:B[0:n]) num_threads(3)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      A[i] = B[i] * 2.0f;
    }
  }
}
`

// laneStoreSrc stores into one lane of a VECTOR array element: the
// element is written, and iteration i reads what i-1 wrote.
const laneStoreSrc = `
void ls(int n) {
  #pragma omp target parallel num_threads(1)
  {
    VECTOR buf[16];
    for (int i = 1; i < n; ++i) {
      buf[i][0] = buf[i-1][0] + 1.0f;
    }
  }
}
`

// compoundScalarSrc folds a compound assignment into a subscript: j is
// 5, so the loop reads s[i+39], what the previous iteration wrote.
const compoundScalarSrc = `
void cs(int n) {
  #pragma omp target parallel num_threads(1)
  {
    float s[64];
    int j = 2;
    j += 3;
    for (int i = 0; i < n; ++i) {
      s[i+40] = s[i+20*j-61];
    }
  }
}
`

func TestEnumerationSoundness(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		defines map[string]string
		env     map[string]int64
	}{
		{"stencil", stencilSrc, nil, map[string]int64{"n": 9}},
		{"anti", antiSrc, nil, map[string]int64{"n": 8}},
		{"ziv", zivSrc, nil, map[string]int64{"n": 6}},
		{"thread-shift", threadShiftSrc, nil, map[string]int64{"n": 11}},
		{"thread-clean", threadCleanSrc, nil, map[string]int64{"n": 10}},
		{"mini-gemm", miniGEMMSrc, nil, map[string]int64{"D": 4}},
		{"triangular", triangularSrc, nil, map[string]int64{"n": 6}},
		{"div-fold", divFoldSrc, nil, map[string]int64{"n": 16}},
		{"strided", stridedSrc, nil, map[string]int64{"n": 8}},
		{"dist3", dist3Src, nil, map[string]int64{"n": 12}},
		{"predicated", predicatedSrc, nil, map[string]int64{"n": 7}},
		{"lane-store", laneStoreSrc, nil, map[string]int64{"n": 12}},
		{"compound-scalar", compoundScalarSrc, nil, map[string]int64{"n": 8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enumCompare(t, c.name, c.src, c.defines, c.env, 200000)
		})
	}
}
