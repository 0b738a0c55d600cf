package hw

import (
	"fmt"

	"paravis/internal/ir"
)

// This file is the evaluator of pure dataflow: Compile turns every stage's
// pure ops into one type-specialized closure (threaded-code style) and
// stores it on the stage as CStage.Eval. Operand positions are resolved to
// indices into the frame's flat register file, int/float/vector variants
// are split at compile time, and the engine's stage entry is "call the
// stage's closure" — no per-cycle switch on Op or Kind, no map lookups, no
// interface boxing. A pure op without a closure is a Compile error. The
// per-op reference interpreter the closures are tested against lives in
// eval_test.go.

// ExecEnv carries the run-constant inputs a stage closure needs beyond the
// register file: the resolved kernel parameters and the executing hardware
// thread's identity.
type ExecEnv struct {
	Params     []Value
	ThreadID   int64
	NumThreads int64
}

// PureFn executes pure nodes against the frame's register file. Operand
// and destination slots are captured at compile time.
type PureFn func(vals []Value, env *ExecEnv)

// compileStages sets Eval on every stage of cg, collecting each stage's
// closures in fns, a scratch it returns for the next graph. The only pure
// ops without a closure are float and vector modulo, which sema and
// ir.Validate already reject, so a failure here means a hand-built or
// corrupted graph.
func compileStages(cg *CGraph, fns []PureFn) ([]PureFn, error) {
	for si := range cg.Stages {
		st := &cg.Stages[si]
		fns = fns[:0]
		for _, pos := range st.Pure {
			fn, ok := specializeNode(cg, pos)
			if !ok {
				n := &cg.Nodes[pos]
				return fns, fmt.Errorf("hw: graph %s n@%d: no stage closure for %s %s", cg.Name, pos, n.Kind, n.Op)
			}
			if fn != nil {
				fns = append(fns, fn)
			}
		}
		st.Eval = fuse(fns)
	}
	return fns, nil
}

// fuse folds a stage's closure list into a single call, keeping schedule
// order. Small counts get unrolled wrappers to avoid loop overhead. The
// result does not retain fns.
func fuse(fns []PureFn) PureFn {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	case 2:
		f0, f1 := fns[0], fns[1]
		return func(v []Value, env *ExecEnv) { f0(v, env); f1(v, env) }
	case 3:
		f0, f1, f2 := fns[0], fns[1], fns[2]
		return func(v []Value, env *ExecEnv) { f0(v, env); f1(v, env); f2(v, env) }
	default:
		fns = append([]PureFn(nil), fns...)
		return func(v []Value, env *ExecEnv) {
			for _, fn := range fns {
				fn(v, env)
			}
		}
	}
}

// specializeNode compiles one pure node into a closure. It returns
// (nil, true) for nodes that evaluate to nothing (engine-written slots),
// and (nil, false) when the node has no closure.
func specializeNode(cg *CGraph, pos int32) (PureFn, bool) {
	n := &cg.Nodes[pos]
	p := pos
	a, b, c := n.A0, n.A1, n.A2
	switch n.Op {
	case ir.OpConstInt:
		k := n.IVal
		return func(v []Value, _ *ExecEnv) { v[p].I = k }, true
	case ir.OpConstFloat:
		k := n.FVal
		return func(v []Value, _ *ExecEnv) { v[p].F = k }, true
	case ir.OpParam:
		idx := n.ParamIdx
		return func(v []Value, env *ExecEnv) { v[p] = env.Params[idx] }, true
	case ir.OpThreadID:
		return func(v []Value, env *ExecEnv) { v[p].I = env.ThreadID }, true
	case ir.OpNumThreads:
		return func(v []Value, env *ExecEnv) { v[p].I = env.NumThreads }, true
	case ir.OpLiveIn, ir.OpCarry, ir.OpLoopOut:
		// Written by the engine (iteration entry / loop completion).
		return nil, true
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
		return specializeArith(n, p, a, b)
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe:
		return specializeCmp(cg, n, p, a, b), true
	case ir.OpAnd:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I != 0 && v[b].I != 0) }, true
	case ir.OpOr:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I != 0 || v[b].I != 0) }, true
	case ir.OpNot:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I == 0) }, true
	case ir.OpSelect:
		switch n.Kind {
		case ir.KindVec:
			return func(v []Value, _ *ExecEnv) {
				src := &v[b]
				if v[a].I == 0 {
					src = &v[c]
				}
				dst := ensureVec(&v[p], len(src.V))
				copy(dst, src.V)
			}, true
		case ir.KindFloat:
			return func(v []Value, _ *ExecEnv) {
				if v[a].I != 0 {
					v[p].F = v[b].F
				} else {
					v[p].F = v[c].F
				}
			}, true
		default:
			return func(v []Value, _ *ExecEnv) {
				if v[a].I != 0 {
					v[p].I = v[b].I
				} else {
					v[p].I = v[c].I
				}
			}, true
		}
	case ir.OpIntToFloat:
		return func(v []Value, _ *ExecEnv) { v[p].F = float32(v[a].I) }, true
	case ir.OpFloatToInt:
		return func(v []Value, _ *ExecEnv) { v[p].I = int64(v[a].F) }, true
	case ir.OpSplat:
		lanes := int(n.Lanes)
		return func(v []Value, _ *ExecEnv) {
			dst := ensureVec(&v[p], lanes)
			f := v[a].F
			for i := range dst {
				dst[i] = f
			}
		}, true
	case ir.OpExtract:
		return func(v []Value, _ *ExecEnv) {
			src := v[a].V
			v[p].F = src[wrapLane(v[b].I, len(src))]
		}, true
	case ir.OpInsert:
		return func(v []Value, _ *ExecEnv) {
			src := v[a].V
			lane := wrapLane(v[b].I, len(src))
			dst := ensureVec(&v[p], len(src))
			copy(dst, src)
			dst[lane] = v[c].F
		}, true
	}
	return nil, false
}

func specializeArith(n *CNode, p, a, b int32) (PureFn, bool) {
	switch n.Kind {
	case ir.KindInt:
		switch n.Op {
		case ir.OpAdd:
			return func(v []Value, _ *ExecEnv) { v[p].I = v[a].I + v[b].I }, true
		case ir.OpSub:
			return func(v []Value, _ *ExecEnv) { v[p].I = v[a].I - v[b].I }, true
		case ir.OpMul:
			return func(v []Value, _ *ExecEnv) { v[p].I = v[a].I * v[b].I }, true
		case ir.OpDiv:
			// A hardware divider produces a defined garbage value for a
			// zero divisor; speculative evaluation must not abort.
			return func(v []Value, _ *ExecEnv) {
				if d := v[b].I; d == 0 {
					v[p].I = 0
				} else {
					v[p].I = v[a].I / d
				}
			}, true
		case ir.OpRem:
			return func(v []Value, _ *ExecEnv) {
				if d := v[b].I; d == 0 {
					v[p].I = 0
				} else {
					v[p].I = v[a].I % d
				}
			}, true
		}
	case ir.KindFloat:
		switch n.Op {
		case ir.OpAdd:
			return func(v []Value, _ *ExecEnv) { v[p].F = v[a].F + v[b].F }, true
		case ir.OpSub:
			return func(v []Value, _ *ExecEnv) { v[p].F = v[a].F - v[b].F }, true
		case ir.OpMul:
			return func(v []Value, _ *ExecEnv) { v[p].F = v[a].F * v[b].F }, true
		case ir.OpDiv:
			return func(v []Value, _ *ExecEnv) { v[p].F = v[a].F / v[b].F }, true
		}
	case ir.KindVec:
		switch n.Op {
		case ir.OpAdd:
			return func(v []Value, _ *ExecEnv) {
				av, bv := v[a].V, v[b].V
				dst := ensureVec(&v[p], len(av))
				for i := range dst {
					dst[i] = av[i] + bv[i]
				}
			}, true
		case ir.OpSub:
			return func(v []Value, _ *ExecEnv) {
				av, bv := v[a].V, v[b].V
				dst := ensureVec(&v[p], len(av))
				for i := range dst {
					dst[i] = av[i] - bv[i]
				}
			}, true
		case ir.OpMul:
			return func(v []Value, _ *ExecEnv) {
				av, bv := v[a].V, v[b].V
				dst := ensureVec(&v[p], len(av))
				for i := range dst {
					dst[i] = av[i] * bv[i]
				}
			}, true
		case ir.OpDiv:
			return func(v []Value, _ *ExecEnv) {
				av, bv := v[a].V, v[b].V
				dst := ensureVec(&v[p], len(av))
				for i := range dst {
					dst[i] = av[i] / bv[i]
				}
			}, true
		}
	}
	// Float/vector modulo.
	return nil, false
}

func specializeCmp(cg *CGraph, n *CNode, p, a, b int32) PureFn {
	if cg.Nodes[n.A0].Kind == ir.KindFloat {
		switch n.Op {
		case ir.OpLt:
			return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].F < v[b].F) }
		case ir.OpLe:
			return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].F <= v[b].F) }
		case ir.OpGt:
			return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].F > v[b].F) }
		case ir.OpGe:
			return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].F >= v[b].F) }
		case ir.OpEq:
			return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].F == v[b].F) }
		default:
			return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].F != v[b].F) }
		}
	}
	switch n.Op {
	case ir.OpLt:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I < v[b].I) }
	case ir.OpLe:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I <= v[b].I) }
	case ir.OpGt:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I > v[b].I) }
	case ir.OpGe:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I >= v[b].I) }
	case ir.OpEq:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I == v[b].I) }
	default:
		return func(v []Value, _ *ExecEnv) { v[p].I = boolToInt(v[a].I != v[b].I) }
	}
}

// ensureVec makes v.V a lanes-wide scratch slice, reusing prior storage.
func ensureVec(v *Value, lanes int) []float32 {
	if cap(v.V) < lanes {
		v.V = make([]float32, lanes)
	}
	v.V = v.V[:lanes]
	return v.V
}

// wrapLane reduces a lane select into range, as a hardware mux would.
func wrapLane(lane int64, n int) int64 {
	if n <= 0 {
		return 0
	}
	lane %= int64(n)
	if lane < 0 {
		lane += int64(n)
	}
	return lane
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
