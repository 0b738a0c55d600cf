package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/paraver"
	"paravis/internal/schedule"
)

// tryCompile is compileSrc without the Fatal: the fuzz target feeds it
// arbitrary source and skips anything the frontend rejects.
func tryCompile(src string) (*hw.CKernel, error) {
	prog, err := minic.Parse(src, minic.Options{})
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
	return hw.Compile(k, s)
}

// diffOutcome captures everything observable about one engine run, for
// comparing two runs of the same kernel. The recorded trace streams are
// compared as the .prv and .pcf bytes paraver renders from them.
type diffOutcome struct {
	err     string
	cycles  int64
	stalls  []int64
	intOps  []int64
	fpOps   []int64
	scalars map[string]float64
	ints    map[string]int64
	bufs    map[string][]uint32
	prv     []byte
	pcf     []byte
}

// runEngine executes ck once with fresh zero buffers for every pointer
// parameter and returns the observable outcome.
func runEngine(ck *hw.CKernel) diffOutcome {
	cfg := DefaultConfig()
	cfg.ThreadStart = 50
	cfg.MaxCycles = 500_000

	args := Args{Ints: map[string]int64{}, Floats: map[string]float64{}, Buffers: map[string]*Buffer{}}
	for _, p := range ck.K.Params {
		switch {
		case p.Pointer:
			args.Buffers[p.Name] = NewZeroBuffer(256)
		case p.Float:
			args.Floats[p.Name] = 1.5
		default:
			args.Ints[p.Name] = 8
		}
	}

	r, err := Run(context.Background(), ck, args, cfg)
	o := diffOutcome{}
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.cycles = r.Cycles
	o.stalls = r.Stalls
	o.intOps = r.IntOps
	o.fpOps = r.FpOps
	o.scalars = r.ScalarsOut
	o.ints = r.ScalarsOutInt
	o.bufs = map[string][]uint32{}
	for name, b := range args.Buffers {
		o.bufs[name] = append([]uint32(nil), b.Words...)
	}
	if r.Prof != nil {
		st := paraver.StreamOf(r.Prof, ck.K.Name, r.Cycles)
		var prv, pcf bytes.Buffer
		if err := st.WritePRV(&prv); err != nil {
			o.err = "write .prv: " + err.Error()
		}
		if err := st.WritePCF(&pcf); err != nil {
			o.err = "write .pcf: " + err.Error()
		}
		o.prv, o.pcf = prv.Bytes(), pcf.Bytes()
	}
	return o
}

// engineRunSeeds seeds FuzzEngineRun with the FuzzParse corpus kernels;
// TestCoastMatchesStepping runs the ones that compile.
var engineRunSeeds = []string{
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

// FuzzEngineRun feeds arbitrary MiniC programs through the full compile
// pipeline and runs everything that compiles twice: as compiled, and as
// steppingCopy, which steps every stage instead of coasting. A run must
// not panic, and the two must agree on errors, cycle counts, per-thread
// counters, kernel outputs and the recorded trace streams. Closure-vs-
// interpreter equivalence is checked per node in internal/hw.
func FuzzEngineRun(f *testing.F) {
	for _, s := range engineRunSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ck, err := tryCompile(src)
		if err != nil {
			t.Skip()
		}
		first := runEngine(ck)
		second := runEngine(steppingCopy(ck))
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("outcome mismatch:\nfirst:  %+v\nsecond: %+v", first, second)
		}
	})
}
