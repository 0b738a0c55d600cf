package hw

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

// This file holds a per-op interpreter of pure nodes — the reference
// implementation the stage closures of specialize.go are checked against —
// and the tests that do the checking, node by node on generated register
// files. Stage entry is the engine's only call of the evaluator, and timing
// depends on it only through the values it writes, so equal register files
// here mean equal engine runs.

// EvalPure evaluates one pure (non-VLO) node into vals[pos]. Invariant
// leaves (constants, params, thread ids) are normally pre-evaluated at
// frame setup; this function still handles them for completeness. LoopOut
// nodes are no-ops here: the engine stores loop results directly.
func (cg *CGraph) EvalPure(pos int32, vals []Value, params []Value, threadID, numThreads int64) error {
	n := &cg.Nodes[pos]
	dst := &vals[pos]
	switch n.Op {
	case ir.OpConstInt:
		dst.I = n.IVal
	case ir.OpConstFloat:
		dst.F = n.FVal
	case ir.OpParam:
		*dst = params[n.ParamIdx]
	case ir.OpThreadID:
		dst.I = threadID
	case ir.OpNumThreads:
		dst.I = numThreads
	case ir.OpLiveIn, ir.OpCarry, ir.OpLoopOut:
		// Written by the engine (iteration entry / loop completion).
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
		return cg.evalArith(n, dst, vals)
	case ir.OpLt:
		a, b := &vals[n.A0], &vals[n.A1]
		if cg.Nodes[n.A0].Kind == ir.KindFloat {
			dst.I = boolToInt(a.F < b.F)
		} else {
			dst.I = boolToInt(a.I < b.I)
		}
	case ir.OpLe:
		a, b := &vals[n.A0], &vals[n.A1]
		if cg.Nodes[n.A0].Kind == ir.KindFloat {
			dst.I = boolToInt(a.F <= b.F)
		} else {
			dst.I = boolToInt(a.I <= b.I)
		}
	case ir.OpGt:
		a, b := &vals[n.A0], &vals[n.A1]
		if cg.Nodes[n.A0].Kind == ir.KindFloat {
			dst.I = boolToInt(a.F > b.F)
		} else {
			dst.I = boolToInt(a.I > b.I)
		}
	case ir.OpGe:
		a, b := &vals[n.A0], &vals[n.A1]
		if cg.Nodes[n.A0].Kind == ir.KindFloat {
			dst.I = boolToInt(a.F >= b.F)
		} else {
			dst.I = boolToInt(a.I >= b.I)
		}
	case ir.OpEq:
		a, b := &vals[n.A0], &vals[n.A1]
		if cg.Nodes[n.A0].Kind == ir.KindFloat {
			dst.I = boolToInt(a.F == b.F)
		} else {
			dst.I = boolToInt(a.I == b.I)
		}
	case ir.OpNe:
		a, b := &vals[n.A0], &vals[n.A1]
		if cg.Nodes[n.A0].Kind == ir.KindFloat {
			dst.I = boolToInt(a.F != b.F)
		} else {
			dst.I = boolToInt(a.I != b.I)
		}
	case ir.OpAnd:
		dst.I = boolToInt(vals[n.A0].I != 0 && vals[n.A1].I != 0)
	case ir.OpOr:
		dst.I = boolToInt(vals[n.A0].I != 0 || vals[n.A1].I != 0)
	case ir.OpNot:
		dst.I = boolToInt(vals[n.A0].I == 0)
	case ir.OpSelect:
		if vals[n.A0].I != 0 {
			cg.copyValue(dst, &vals[n.A1], n)
		} else {
			cg.copyValue(dst, &vals[n.A2], n)
		}
	case ir.OpIntToFloat:
		dst.F = float32(vals[n.A0].I)
	case ir.OpFloatToInt:
		dst.I = int64(vals[n.A0].F)
	case ir.OpSplat:
		v := ensureVec(dst, int(n.Lanes))
		f := vals[n.A0].F
		for i := range v {
			v[i] = f
		}
	case ir.OpExtract:
		// A hardware lane mux wraps out-of-range selects; speculative
		// evaluation on loop-exit passes relies on this.
		src := vals[n.A0].V
		lane := wrapLane(vals[n.A1].I, len(src))
		dst.F = src[lane]
	case ir.OpInsert:
		src := vals[n.A0].V
		lane := wrapLane(vals[n.A1].I, len(src))
		v := ensureVec(dst, len(src))
		copy(v, src)
		v[lane] = vals[n.A2].F
	default:
		return fmt.Errorf("hw: EvalPure on non-pure op %s", n.Op)
	}
	return nil
}

// copyValue copies by kind (vectors deep-copy into dst scratch).
func (cg *CGraph) copyValue(dst, src *Value, n *CNode) {
	switch n.Kind {
	case ir.KindVec:
		v := ensureVec(dst, len(src.V))
		copy(v, src.V)
	case ir.KindFloat:
		dst.F = src.F
	default:
		dst.I = src.I
	}
}

func (cg *CGraph) evalArith(n *CNode, dst *Value, vals []Value) error {
	a, b := &vals[n.A0], &vals[n.A1]
	switch n.Kind {
	case ir.KindInt:
		switch n.Op {
		case ir.OpAdd:
			dst.I = a.I + b.I
		case ir.OpSub:
			dst.I = a.I - b.I
		case ir.OpMul:
			dst.I = a.I * b.I
		case ir.OpDiv:
			// A hardware divider produces a defined garbage value for a
			// zero divisor; speculative evaluation must not abort.
			if b.I == 0 {
				dst.I = 0
			} else {
				dst.I = a.I / b.I
			}
		case ir.OpRem:
			if b.I == 0 {
				dst.I = 0
			} else {
				dst.I = a.I % b.I
			}
		}
	case ir.KindFloat:
		switch n.Op {
		case ir.OpAdd:
			dst.F = a.F + b.F
		case ir.OpSub:
			dst.F = a.F - b.F
		case ir.OpMul:
			dst.F = a.F * b.F
		case ir.OpDiv:
			dst.F = a.F / b.F
		case ir.OpRem:
			return fmt.Errorf("hw: float modulo")
		}
	case ir.KindVec:
		av, bv := a.V, b.V
		v := ensureVec(dst, len(av))
		switch n.Op {
		case ir.OpAdd:
			for i := range v {
				v[i] = av[i] + bv[i]
			}
		case ir.OpSub:
			for i := range v {
				v[i] = av[i] - bv[i]
			}
		case ir.OpMul:
			for i := range v {
				v[i] = av[i] * bv[i]
			}
		case ir.OpDiv:
			for i := range v {
				v[i] = av[i] / bv[i]
			}
		case ir.OpRem:
			return fmt.Errorf("hw: vector modulo")
		}
	}
	return nil
}

// Operand pools for generated register files: zero divisors, ±1, the
// extremes, lane selects inside and outside any lane count; NaN, ±Inf, -0
// and the float extremes.
var (
	oracleInts = []int64{0, 0, 1, -1, 2, 3, 5, -7, 8, 17, -33, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	oracleF32s = []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -2.25, 3e9, -3e9, 1e19, -1e19,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, math.SmallestNonzeroFloat32}
)

func genInt(rng *rand.Rand) int64 {
	if rng.Intn(4) == 0 {
		return int64(rng.Uint64())
	}
	return oracleInts[rng.Intn(len(oracleInts))]
}

func genF32(rng *rand.Rand) float32 {
	if rng.Intn(4) == 0 {
		return math.Float32frombits(rng.Uint32())
	}
	return oracleF32s[rng.Intn(len(oracleF32s))]
}

// genRegs fills a register file for cg, each slot typed by its node's kind.
func genRegs(cg *CGraph, lanes int, rng *rand.Rand) []Value {
	vals := make([]Value, len(cg.Nodes))
	for i := range cg.Nodes {
		switch cg.Nodes[i].Kind {
		case ir.KindInt:
			vals[i].I = genInt(rng)
		case ir.KindFloat:
			vals[i].F = genF32(rng)
		case ir.KindVec:
			vals[i].V = make([]float32, lanes)
			for l := range vals[i].V {
				vals[i].V[l] = genF32(rng)
			}
		}
	}
	return vals
}

func cloneRegs(vals []Value) []Value {
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = v
		out[i].V = append([]float32(nil), v.V...)
	}
	return out
}

// sameValue compares two slots bit for bit (NaN payloads and -0 included).
func sameValue(a, b Value) bool {
	if a.I != b.I || math.Float32bits(a.F) != math.Float32bits(b.F) || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.V {
		if math.Float32bits(a.V[i]) != math.Float32bits(b.V[i]) {
			return false
		}
	}
	return true
}

// checkStageClosures runs, for every stage of every graph, the stage's
// closure on one copy of a generated register file and the interpreter over
// the stage's Pure list on another, rounds times, and demands the same
// register file afterwards.
func checkStageClosures(t *testing.T, ck *CKernel, rng *rand.Rand, rounds int) {
	t.Helper()
	env := &ExecEnv{Params: make([]Value, len(ck.K.Params))}
	for _, cg := range ck.Graphs {
		for si := range cg.Stages {
			st := &cg.Stages[si]
			for r := 0; r < rounds; r++ {
				for i, p := range ck.K.Params {
					if p.Float {
						env.Params[i] = Value{F: genF32(rng)}
					} else {
						env.Params[i] = Value{I: genInt(rng)}
					}
				}
				env.NumThreads = 1 + rng.Int63n(16)
				env.ThreadID = rng.Int63n(env.NumThreads)
				got := genRegs(cg, ck.Lanes, rng)
				want := cloneRegs(got)
				if st.Eval != nil {
					st.Eval(got, env)
				}
				for _, pos := range st.Pure {
					if err := cg.EvalPure(pos, want, env.Params, env.ThreadID, env.NumThreads); err != nil {
						t.Fatalf("graph %s stage %d n@%d: oracle: %v", cg.Name, si, pos, err)
					}
				}
				for i := range want {
					if !sameValue(got[i], want[i]) {
						t.Fatalf("graph %s stage %d: slot %d (%s %s) closure=%+v oracle=%+v",
							cg.Name, si, i, cg.Nodes[i].Kind, cg.Nodes[i].Op, got[i], want[i])
					}
				}
			}
		}
	}
}

func compileSource(src string, defines map[string]string) (*CKernel, error) {
	prog, err := minic.Parse(src, minic.Options{Defines: defines})
	if err != nil {
		return nil, err
	}
	k, err := lower.Lower(prog)
	if err != nil {
		return nil, err
	}
	s, err := schedule.Build(k, schedule.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return Compile(k, s)
}

// allOpsSrc uses the pure ops and operand kinds the seed and example kernels
// leave out: every comparison on ints and floats, logic, conversions both
// ways, selects of each kind, and vector subtract and divide.
const allOpsSrc = `
void ops(float* X, int* Y, int n, float f) {
  #pragma omp target parallel map(tofrom:X[0:n], Y[0:n]) num_threads(2)
  {
    int id = omp_get_thread_num();
    for (int i = id; i < n; i += 2) {
      float x = X[i];
      int y = Y[i];
      int c = (x < f) + (x <= f) + (x > f) + (x >= f) + (x == f) + (x != f);
      c += (y <= i) + (y > i) + (y >= i) + (y == i) + (y != i);
      c += (x < f && y > i) + (x > f || !(y < n));
      int q = (y < i) ? y / i : y % n - i;
      float g = (c > 3) ? x - f : (float)q;
      VECTOR a = *((VECTOR*)&X[0]);
      VECTOR b = {f};
      VECTOR d = a - b;
      if (c > q) {
        d = d / a;
      }
      d[y] = g;
      X[i] = d[i] + d[q];
      Y[i] = c + (int)g;
    }
  }
}
`

// TestStageClosuresMatchOracle checks the closures of the six seed kernels,
// of every example kernel and of allOpsSrc against the interpreter.
func TestStageClosuresMatchOracle(t *testing.T) {
	units := append(workloads.Units(), workloads.Unit{Name: "all-ops", Source: allOpsSrc})
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || filepath.Ext(path) != ".mc" {
			return err
		}
		src, err := os.ReadFile(path)
		units = append(units, workloads.Unit{Name: strings.TrimPrefix(path, "../../"), Source: string(src)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 10 {
		t.Fatalf("found %d kernels, want the six seeds, all-ops and at least three examples", len(units))
	}
	for _, u := range units {
		t.Run(u.Name, func(t *testing.T) {
			ck, err := compileSource(u.Source, u.Defines)
			if err != nil {
				t.Fatal(err)
			}
			checkStageClosures(t, ck, rand.New(rand.NewSource(1)), 32)
		})
	}
}

// FuzzStageClosures does the same for arbitrary source: anything that
// compiles must evaluate identically through closures and interpreter.
func FuzzStageClosures(f *testing.F) {
	seeds := []string{
		"",
		"void f() {}",
		`#define N 16
void k(float* A, float* C) {
#pragma omp target parallel map(to:A[0:N]) map(from:C[0:N]) num_threads(4)
  {
    int id = omp_get_thread_num();
    C[id] = A[id] * 2.0f;
  }
}`,
		`void v(float* X) {
#pragma omp target parallel map(tofrom:X[0:64]) num_threads(2)
  {
    VECTOR a = *((VECTOR*)&X[0]);
    #pragma omp critical
    { X[0] = a[0]; }
    #pragma omp barrier
  }
}`,
		`void s(float* A, float* B, int n) {
#pragma omp target parallel map(to:A[0:n]) map(from:B[0:n]) num_threads(2)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      B[i] = (A[i] + 1.0f) * 0.5f - (float)i / 4.0f;
    }
  }
}`,
		`void m(int* A, int* B, int n) {
#pragma omp target parallel map(to:A[0:n]) map(from:B[0:n]) num_threads(3)
  {
    int id = omp_get_thread_num();
    for (int i = id; i < n; i += 3) {
      B[i] = (A[i] * 7 + i) % 5 - i / 3;
    }
  }
}`,
		"void f(int",
		"#pragma omp target parallel map(",
	}
	for i, s := range seeds {
		f.Add(s, uint64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		ck, err := compileSource(src, nil)
		if err != nil {
			t.Skip()
		}
		checkStageClosures(t, ck, rand.New(rand.NewSource(int64(seed))), 8)
	})
}
