package schedule

import (
	"testing"
	"testing/quick"

	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
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

func kernelFor(t testing.TB, src string) *ir.Kernel {
	t.Helper()
	prog, err := minic.Parse(src, minic.Options{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k, err := lower.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return k
}

func TestScheduleGEMM(t *testing.T) {
	k := kernelFor(t, gemmNaive)
	s, err := Build(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(k.CollectGraphs()) != 4 {
		t.Fatalf("scheduled graphs = %d, want 4", len(k.CollectGraphs()))
	}
	// The innermost loop (with two external loads and an FP multiply-add
	// chain) must be deeper than the minimum external latency.
	var inner *GraphSched
	for _, g := range k.CollectGraphs() {
		gs := s.Graph(g)
		hasLoad := false
		for _, n := range gs.G.Nodes {
			if n.Op == ir.OpLoad {
				hasLoad = true
			}
		}
		if hasLoad && gs.G.NumCarry > 0 {
			inner = gs
		}
	}
	if inner == nil {
		t.Fatal("inner loop schedule not found")
	}
	if inner.Depth < DefaultLatencies().MinExternal {
		t.Errorf("inner depth = %d, want >= %d", inner.Depth, DefaultLatencies().MinExternal)
	}
	if inner.NumReordering == 0 {
		t.Error("inner loop must have reordering stages (it has VLOs)")
	}
	// FP ops must be counted somewhere.
	var fp int
	for _, st := range inner.Stages {
		fp += st.FpOps
	}
	if fp < 2 {
		t.Errorf("inner loop FP ops = %d, want >= 2 (mul + add)", fp)
	}
}

func TestScheduleCondStage(t *testing.T) {
	k := kernelFor(t, gemmNaive)
	s, err := Build(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range k.CollectGraphs() {
		gs := s.Graph(g)
		if gs.G.Cond == nil {
			if gs.CondStage != 0 {
				t.Errorf("top graph cond stage = %d", gs.CondStage)
			}
			continue
		}
		if gs.CondStage <= 0 || gs.CondStage > gs.Depth {
			t.Errorf("graph %s cond stage %d outside (0,%d]", gs.G.Name, gs.CondStage, gs.Depth)
		}
	}
}

func TestScheduleDeadCodeEliminated(t *testing.T) {
	src := `
void f(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(1)
  {
    float dead = 123.0f;
    float live = 1.0f;
    for (int i = 0; i < n; i++) {
      live = live + dead;
    }
    A[0] = live;
  }
}
`
	k := kernelFor(t, src)
	s, err := Build(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The loop's carried `i` is read by cond -> live; its LoopOut in top
	// is dead and must not be scheduled.
	deadOuts := 0
	for _, n := range k.Top.Nodes {
		if n.Op == ir.OpLoopOut && !s.Live[n.ID] {
			deadOuts++
		}
	}
	if deadOuts == 0 {
		t.Error("expected at least one dead LoopOut to be eliminated")
	}
}

func TestScheduleRespectsEffectChain(t *testing.T) {
	src := `
void f(float* A) {
  #pragma omp target parallel map(tofrom:A[0:8]) num_threads(1)
  {
    A[0] = 1.0f;
    float x = A[0];
    A[1] = x + 1.0f;
  }
}
`
	k := kernelFor(t, src)
	s, err := Build(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var store0, load *ir.Node
	for _, n := range k.Top.Nodes {
		if n.Op == ir.OpStore && store0 == nil {
			store0 = n
		}
		if n.Op == ir.OpLoad {
			load = n
		}
	}
	if s.Start[load.ID] < s.Start[store0.ID]+s.Lat[store0.ID] {
		t.Errorf("load scheduled at %d before store completes at %d",
			s.Start[load.ID], s.Start[store0.ID]+s.Lat[store0.ID])
	}
}

// Property: for random latency tables, the schedule always validates and
// depth is at least the latency of the longest single op.
func TestSchedulePropertyRandomLatencies(t *testing.T) {
	k := kernelFor(t, gemmNaive)
	f := func(a, m, d, fa, fm, fd, cv, ml, me uint8) bool {
		lat := Latencies{
			IntAdd:      int(a%4) + 1,
			IntMul:      int(m%6) + 1,
			IntDiv:      int(d%16) + 1,
			FpAdd:       int(fa%8) + 1,
			FpMul:       int(fm%8) + 1,
			FpDiv:       int(fd%24) + 1,
			Conv:        int(cv%4) + 1,
			MinLocal:    int(ml%4) + 1,
			MinExternal: int(me%16) + 1,
			MinStore:    1,
			MinLock:     2,
			MinLoop:     1,
		}
		s, err := Build(k, Config{Lat: lat})
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	k := kernelFor(t, gemmNaive)
	s1, err := Build(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range k.CollectGraphs() {
		g1, g2 := s1.Graph(g), s2.Graph(g)
		if g1.Depth != g2.Depth || g1.CondStage != g2.CondStage {
			t.Fatalf("nondeterministic schedule for %s", g.Name)
		}
	}
	for id, st := range s1.Start {
		if s2.Start[id] != st || s2.Live[id] != s1.Live[id] || s2.WaitStage[id] != s1.WaitStage[id] {
			t.Fatalf("node n%d scheduled at %d then %d", id, st, s2.Start[id])
		}
	}
}

func TestTotalStages(t *testing.T) {
	k := kernelFor(t, gemmNaive)
	s, err := Build(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, g := range k.CollectGraphs() {
		sum += s.Graph(g).Depth
	}
	if s.TotalStages() != sum {
		t.Errorf("TotalStages = %d, want %d", s.TotalStages(), sum)
	}
	if sum == 0 {
		t.Error("zero total stages")
	}
}
