package lower

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paravis/internal/ir"
	"paravis/internal/minic"
	"paravis/internal/workloads"
)

const gemmNaive = `
#define DTYPE float

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
    map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(8)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = 0; i < DIM; ++i) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = my_id; k < DIM; k += num_threads) {
          sum += A[i*DIM+k] * B[k*DIM+j];
        }
        #pragma omp critical
        {
          C[i*DIM + j] = sum;
        }
      }
    }
  }
}
`

const piSrc = `
#define DTYPE float
#define BS_compute 4

DTYPE pi(int steps, int threads) {
  DTYPE final_sum = 0.0;
  DTYPE step = 1.0/(DTYPE)steps;
  #pragma omp target parallel map(to:step) map(tofrom:final_sum) num_threads(8)
  {
    int step_per_thread = steps/omp_get_num_threads();
    int start_i = omp_get_thread_num()*step_per_thread;
    VECTOR sum = {0.0f};
    DTYPE local_step = step;
    for (int i = 0; i < step_per_thread; i += BS_compute) {
      #pragma unroll BS_compute
      for (int j = 0; j < BS_compute; j++) {
        DTYPE x = ((DTYPE)(i+start_i+j)+0.5f)*local_step;
        sum[j] += 4.0f / (1.0f+x*x);
      }
    }
    #pragma omp critical
    for (int i = 0; i < 4; i++) {
      final_sum += sum[i];
    }
  }
  return final_sum;
}
`

func lowerSrc(t *testing.T, src string, defines map[string]string) *ir.Kernel {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{Defines: defines})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k, err := Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return k
}

// countOp counts the nodes of one op across all of the kernel's graphs.
func countOp(k *ir.Kernel, op ir.Op) int {
	n := 0
	for _, g := range k.CollectGraphs() {
		for _, node := range g.Nodes {
			if node.Op == op {
				n++
			}
		}
	}
	return n
}

func TestLowerGEMMNaive(t *testing.T) {
	k := lowerSrc(t, gemmNaive, nil)
	if k.Name != "matmul" {
		t.Errorf("name = %s", k.Name)
	}
	if k.NumThreads != 8 {
		t.Errorf("threads = %d", k.NumThreads)
	}
	if len(k.Maps) != 3 {
		t.Fatalf("maps = %d, want 3", len(k.Maps))
	}
	// Graphs: top + i + j + k loops.
	if got := len(k.CollectGraphs()); got != 4 {
		t.Errorf("graphs = %d, want 4", got)
	}
	if countOp(k, ir.OpLock) != 1 || countOp(k, ir.OpUnlock) != 1 {
		t.Errorf("lock/unlock = %d/%d, want 1/1", countOp(k, ir.OpLock), countOp(k, ir.OpUnlock))
	}
	if k.NumSems != 1 {
		t.Errorf("sems = %d, want 1", k.NumSems)
	}
	// Two loads (A, B) in the inner loop, one store (C) in j loop.
	if countOp(k, ir.OpLoad) != 2 {
		t.Errorf("loads = %d, want 2", countOp(k, ir.OpLoad))
	}
	if countOp(k, ir.OpStore) != 1 {
		t.Errorf("stores = %d, want 1", countOp(k, ir.OpStore))
	}
	if err := ir.Validate(k); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestLowerGEMMMapSizes(t *testing.T) {
	k := lowerSrc(t, gemmNaive, nil)
	env := map[string]int64{"DIM": 64}
	for _, m := range k.Maps {
		n, err := m.Len.Eval(env)
		if err != nil {
			t.Fatalf("eval len of %s: %v", m.Name, err)
		}
		if n != 64*64 {
			t.Errorf("map %s len = %d, want 4096", m.Name, n)
		}
		low, err := m.Low.Eval(env)
		if err != nil || low != 0 {
			t.Errorf("map %s low = %d (%v)", m.Name, low, err)
		}
	}
}

func TestLowerPi(t *testing.T) {
	k := lowerSrc(t, piSrc, nil)
	// Params: steps, threads (scalars), step (to-mapped scalar),
	// final_sum (tofrom scalar -> pointer).
	var names []string
	for _, p := range k.Params {
		names = append(names, p.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"steps", "step", "final_sum"} {
		if !strings.Contains(joined, want) {
			t.Errorf("params %v missing %s", names, want)
		}
	}
	var finalSum *ir.Param
	for i := range k.Params {
		if k.Params[i].Name == "final_sum" {
			finalSum = &k.Params[i]
		}
	}
	if finalSum == nil || !finalSum.Pointer {
		t.Fatalf("final_sum should be lowered to a pointer (shared scalar), got %+v", finalSum)
	}
	// The unrolled inner loop is replicated: at least BS_compute divides.
	if got := countOp(k, ir.OpDiv); got < 4 {
		t.Errorf("divides = %d, want >= 4 (unrolled by 4)", got)
	}
	// final_sum += in the critical is a load+store on the shared scalar.
	if countOp(k, ir.OpLoad) < 1 || countOp(k, ir.OpStore) < 1 {
		t.Error("expected shared-scalar load/store for final_sum")
	}
	if err := ir.Validate(k); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestLowerUnrollReplication(t *testing.T) {
	src := `
void f(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    #pragma unroll 4
    for (int i = 0; i < n; i++) {
      A[i] = A[i] + 1.0f;
    }
  }
}
`
	k := lowerSrc(t, src, nil)
	// 4 replicas: 4 predicated (or first unpredicated) load/store pairs
	// plus the compound-assign loads.
	if got := countOp(k, ir.OpStore); got != 4 {
		t.Errorf("stores = %d, want 4 (unroll factor)", got)
	}
	// Replicas 2..4 are guarded by the loop condition.
	graphs := k.CollectGraphs()
	if len(graphs) != 2 {
		t.Fatalf("graphs = %d, want 2", len(graphs))
	}
	var predStores int
	for _, n := range graphs[1].Nodes {
		if n.Op == ir.OpStore && n.Pred != nil {
			predStores++
		}
	}
	if predStores != 3 {
		t.Errorf("predicated stores = %d, want 3", predStores)
	}
}

func TestLowerIfConversion(t *testing.T) {
	src := `
void f(int* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:8]) num_threads(1)
  {
    int x = 0;
    if (n > 3) {
      x = 1;
      A[0] = 7;
    } else {
      x = 2;
    }
    A[1] = x;
  }
}
`
	k := lowerSrc(t, src, nil)
	top := k.Top
	var selects, predStores int
	for _, n := range top.Nodes {
		if n.Op == ir.OpSelect {
			selects++
		}
		if n.Op == ir.OpStore && n.Pred != nil {
			predStores++
		}
	}
	if selects < 1 {
		t.Errorf("selects = %d, want >= 1 (merge of x)", selects)
	}
	if predStores != 1 {
		t.Errorf("predicated stores = %d, want 1 (A[0]=7 under if)", predStores)
	}
}

func TestLowerLoopCarriedSum(t *testing.T) {
	src := `
void f(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    float s = 0.0f;
    for (int i = 0; i < n; i++) {
      s += A[i];
    }
    A[0] = s;
  }
}
`
	k := lowerSrc(t, src, nil)
	graphs := k.CollectGraphs()
	if len(graphs) != 2 {
		t.Fatalf("graphs = %d", len(graphs))
	}
	loop := graphs[1]
	// Carried: s and i.
	if loop.NumCarry != 2 {
		t.Errorf("carried = %d, want 2 (s, i)", loop.NumCarry)
	}
	// The parent must read both back through LoopOut (s used by store; i
	// dead but still materialized at most once).
	var loopOuts int
	for _, n := range k.Top.Nodes {
		if n.Op == ir.OpLoopOut {
			loopOuts++
		}
	}
	if loopOuts != 2 {
		t.Errorf("loopouts = %d, want 2", loopOuts)
	}
}

func TestLowerEffectDeps(t *testing.T) {
	src := `
void f(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:8]) num_threads(1)
  {
    A[0] = 1.0f;
    float x = A[0];
    A[1] = x;
  }
}
`
	k := lowerSrc(t, src, nil)
	var store0, load, store1 *ir.Node
	for _, n := range k.Top.Nodes {
		switch {
		case n.Op == ir.OpStore && store0 == nil:
			store0 = n
		case n.Op == ir.OpLoad:
			load = n
		case n.Op == ir.OpStore && store0 != nil:
			store1 = n
		}
	}
	if store0 == nil || load == nil || store1 == nil {
		t.Fatal("missing memory ops")
	}
	hasDep := func(n, dep *ir.Node) bool {
		for _, d := range n.EffectDeps {
			if d == dep {
				return true
			}
		}
		return false
	}
	if !hasDep(load, store0) {
		t.Error("load A[0] must depend on store A[0]")
	}
	if !hasDep(store1, load) && !hasDep(store1, store0) {
		t.Error("store A[1] must be ordered after previous accesses to A")
	}
}

func TestLowerCriticalIsFence(t *testing.T) {
	src := `
void f(float* A) {
  #pragma omp target parallel map(tofrom:A[0:8]) num_threads(2)
  {
    A[0] = 1.0f;
    #pragma omp critical
    {
      A[1] = 2.0f;
    }
    A[2] = 3.0f;
  }
}
`
	k := lowerSrc(t, src, nil)
	var lock, unlock *ir.Node
	stores := []*ir.Node{}
	for _, n := range k.Top.Nodes {
		switch n.Op {
		case ir.OpLock:
			lock = n
		case ir.OpUnlock:
			unlock = n
		case ir.OpStore:
			stores = append(stores, n)
		}
	}
	if lock == nil || unlock == nil || len(stores) != 3 {
		t.Fatalf("lock=%v unlock=%v stores=%d", lock, unlock, len(stores))
	}
	hasDep := func(n, dep *ir.Node) bool {
		for _, d := range n.EffectDeps {
			if d == dep {
				return true
			}
		}
		return false
	}
	if !hasDep(lock, stores[0]) {
		t.Error("lock must wait for the store before the critical section")
	}
	if !hasDep(stores[1], lock) {
		t.Error("protected store must wait for the lock")
	}
	if !hasDep(unlock, stores[1]) {
		t.Error("unlock must wait for the protected store")
	}
	if !hasDep(stores[2], unlock) {
		t.Error("store after critical must wait for the unlock")
	}
}

func TestLowerLocalArrays(t *testing.T) {
	src := `
#define BS 4
void f(float* A, int n) {
  #pragma omp target parallel map(to:A[0:n]) num_threads(2)
  {
    float buf[BS];
    for (int i = 0; i < BS; i++) {
      buf[i] = A[i];
    }
    for (int i = 0; i < BS; i++) {
      A[i] = buf[BS-1-i];
    }
  }
}
`
	k := lowerSrc(t, src, nil)
	if len(k.Locals) != 1 {
		t.Fatalf("locals = %d, want 1", len(k.Locals))
	}
	if k.Locals[0].NumElems != 4 || k.Locals[0].ElemWords != 1 {
		t.Errorf("local = %+v", k.Locals[0])
	}
}

func TestLowerVectorKernel(t *testing.T) {
	src := `
void f(float* A, float* C, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:C[0:n]) num_threads(2)
  {
    VECTOR acc = {0.0f};
    for (int i = 0; i < n; i += 4) {
      VECTOR v = *((VECTOR*)&A[i]);
      acc += v;
    }
    *((VECTOR*)&C[0]) = acc;
  }
}
`
	k := lowerSrc(t, src, nil)
	if k.VectorLanes != 4 {
		t.Errorf("lanes = %d", k.VectorLanes)
	}
	var wideLoads, wideStores int
	for _, g := range k.CollectGraphs() {
		for _, n := range g.Nodes {
			if n.Op == ir.OpLoad && n.Width == 4 {
				wideLoads++
			}
			if n.Op == ir.OpStore && n.Width == 4 {
				wideStores++
			}
		}
	}
	if wideLoads != 1 || wideStores != 1 {
		t.Errorf("wide loads/stores = %d/%d, want 1/1", wideLoads, wideStores)
	}
}

func TestLowerRejectsAssignToFirstprivate(t *testing.T) {
	src := `
void f(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:4]) num_threads(1)
  {
    n = 5;
    A[0] = 1.0f;
  }
}
`
	prog, err := minic.Parse(src, minic.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Lower(prog); err == nil {
		t.Fatal("expected error assigning to firstprivate scalar")
	}
}

// TestLowerDumpIsStable lowers every kernel of the repository 20 times:
// the seed workloads, the example kernels, the benchmark's test data and
// the staticcheck fixtures. Each must lower to one IR, whatever order Go
// iterates maps in.
func TestLowerDumpIsStable(t *testing.T) {
	type unit struct {
		name, src string
		defines   map[string]string
	}
	var units []unit
	for _, u := range workloads.Units() {
		units = append(units, unit{u.Name, u.Source, u.Defines})
	}
	for _, pat := range []string{"../../examples/*/*.mc", "../../benchmark/testdata/*.mc", "../staticcheck/testdata/*.mc"} {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			t.Fatalf("glob %s: %v (%d files)", pat, err, len(files))
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, unit{name: f, src: string(src)})
		}
	}
	lowered := 0
	for _, u := range units {
		first := ""
		for run := 0; run < 20; run++ {
			prog, err := minic.Parse(u.src, minic.Options{Defines: u.defines})
			if err != nil {
				break // a fixture that does not compile
			}
			k, err := Lower(prog)
			if err != nil {
				break
			}
			if dump := ir.Dump(k); run == 0 {
				first = dump
				lowered++
			} else if dump != first {
				t.Errorf("%s: run %d lowered to a different IR", u.name, run+1)
				break
			}
		}
	}
	if lowered < 20 {
		t.Errorf("only %d kernels lowered", lowered)
	}
}

// shadowedCarrySrc assigns the outer s in a loop whose body first declares
// an inner s in a nested block: the outer s is still carried.
const shadowedCarrySrc = `
void f(float* Y, int n) {
  #pragma omp target parallel map(tofrom:Y[0:2]) num_threads(1)
  {
    int s = 0;
    for (int i = 0; i < n; i++) {
      if (i >= 0) { int s = 5; Y[1] = s; }
      s = s + 1;
    }
    Y[0] = s;
  }
}
`

// shadowedHostSrc maps the host int s while a float s declared in an
// earlier block has gone out of scope.
const shadowedHostSrc = `
void f(float* Y, int n) {
  int s = 3;
  if (n > 100) { float s = 1.5f; n = n + 1; }
  #pragma omp target parallel map(to: s) map(tofrom:Y[0:2]) num_threads(1)
  {
    Y[0] = s + 1;
  }
}
`

func TestLowerCarriesShadowedVariable(t *testing.T) {
	k := lowerSrc(t, shadowedCarrySrc, nil)
	graphs := k.CollectGraphs()
	if len(graphs) != 2 {
		t.Fatalf("graphs = %d, want 2", len(graphs))
	}
	if loop := graphs[1]; loop.NumCarry != 2 {
		t.Errorf("carried = %d, want 2 (the outer s and i)", loop.NumCarry)
	}
}

// TestLowerUnrolledNestCarriesNoBodyLocal lowers a loop nest twice over
// (the outer loop is unrolled): the second copy of the inner loop must not
// carry t, a variable its own body declares, though t is bound from the
// first copy by then.
func TestLowerUnrolledNestCarriesNoBodyLocal(t *testing.T) {
	src := `
void f(int* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:64]) num_threads(1)
  {
    #pragma unroll 2
    for (int i = 0; i < n; i++) {
      for (int k = 0; k < 4; k++) {
        int t = k;
        t += i;
        A[i * 4 + k] = t;
      }
    }
  }
}
`
	k := lowerSrc(t, src, nil)
	inner := 0
	for _, g := range k.CollectGraphs()[2:] {
		inner++
		if g.NumCarry != 1 {
			t.Errorf("inner loop %s carries %d, want 1 (k)", g.Name, g.NumCarry)
		}
	}
	if inner != 2 {
		t.Errorf("inner loops = %d, want 2 (one per replica)", inner)
	}
}

func TestLowerMapsShadowedHostScalar(t *testing.T) {
	k := lowerSrc(t, shadowedHostSrc, nil)
	for _, p := range k.Params {
		if p.Name == "s" {
			if p.Float || p.Pointer {
				t.Errorf("param s = %+v, want an int kernel argument", p)
			}
			return
		}
	}
	t.Fatalf("no param s in %+v", k.Params)
}
