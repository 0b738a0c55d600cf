package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/ir"
)

// unrollSrc runs an inner loop under an outer loop of four iterations on
// two threads. The outer loop is unrolled by 2, which replicates the inner
// loop: two graphs then carry the inner loop's name.
const unrollSrc = `
void k(float* A, float* out) {
  #pragma omp target parallel map(to:A[0:64]) map(from:out[0:2]) num_threads(2)
  {
    int id = omp_get_thread_num();
    float s = 0.0f;
    #pragma unroll 2
    for (int i = 0; i < 4; i++) {
      for (int j = 0; j < 9; j++) {
        s += A[i * 9 + j];
      }
    }
    out[id] = s;
  }
}
`

// TestUnrolledReplicasShareTheLedger: the per-loop ledger sums every graph
// of one loop name, so the inner loop of an unrolled body counts both of
// its replicas. Its iterations and executions must equal the rolled
// version's (the same work runs); its active and stall cycles are pinned.
func TestUnrolledReplicasShareTheLedger(t *testing.T) {
	run := func(src string) *Result {
		t.Helper()
		ck := compileSrc(t, src, nil)
		r, err := Run(context.Background(), ck, Args{Buffers: map[string]*Buffer{
			"A": NewZeroBuffer(64), "out": NewZeroBuffer(2),
		}}, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const inner = "for@9:7"
	unrolled := run(unrollSrc)
	// The rolled version blanks the pragma, keeping every line in place.
	rolled := run(strings.Replace(unrollSrc, "#pragma unroll 2", "", 1))

	for _, c := range []struct {
		name   string
		m      map[string]int64
		rolled map[string]int64
		want   int64
	}{
		{"ItersByLoop", unrolled.ItersByLoop, rolled.ItersByLoop, 80},
		{"ExecsByLoop", unrolled.ExecsByLoop, rolled.ExecsByLoop, 8},
		{"ActiveByLoop", unrolled.ActiveByLoop, nil, 4984},
	} {
		if got := c.m[inner]; got != c.want {
			t.Errorf("unrolled %s[%s] = %d, want %d (%v)", c.name, inner, got, c.want, c.m)
		}
		if c.rolled != nil && c.rolled[inner] != c.want {
			t.Errorf("rolled %s[%s] = %d, want %d like the unrolled version", c.name, inner, c.rolled[inner], c.want)
		}
	}
	if want := map[string]int64{inner: 3888, "top": 2}; !reflect.DeepEqual(unrolled.StallsByLoop, want) {
		t.Errorf("unrolled StallsByLoop = %v, want %v", unrolled.StallsByLoop, want)
	}
}

// TestFlushAfterLastThreadEndsTheRun: when the last profile-flush write
// completes after every thread has finished, the run ends at the next
// cycle, as the loop's exit check would end it, instead of reporting a
// deadlock. Each point deadlocked at the cycle before the pinned end.
func TestFlushAfterLastThreadEndsTheRun(t *testing.T) {
	for _, c := range []struct {
		dim          int
		threadStart  int64
		state, event int
		cycles, end  int64
	}{
		{16, 0, 2, 4, 150_845, 150_847},
		{32, 0, 1, 1, 632_179, 632_181},
		{32, 25_000, 4, 2, 805_701, 805_703},
	} {
		u := seedUnits(t, c.dim, 64)[0]
		if u.name != "gemm-naive" {
			t.Fatalf("first seed is %s, want gemm-naive", u.name)
		}
		cfg := DefaultConfig()
		cfg.ThreadStart = c.threadStart
		cfg.Profile.StateBufferLines, cfg.Profile.EventBufferLines = c.state, c.event
		r, err := Run(context.Background(), u.ck, u.args(), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if r.Cycles != c.cycles {
			t.Errorf("%+v: Cycles = %d", c, r.Cycles)
		}
		// Finalize closed the last sample window at the end cycle.
		if got := r.Prof.NextBoundary() - cfg.Profile.SamplePeriod; got != c.end {
			t.Errorf("%+v: run ended at cycle %d", c, got)
		}
	}
}

// TestDeadlockIsTyped: a run no event can finish reports *ErrDeadlock
// with the message text it always had.
func TestDeadlockIsTyped(t *testing.T) {
	e := bareEngine(7)
	e.ck = &hw.CKernel{K: &ir.Kernel{Name: "one"}}
	e.threads = []*thread{{}} // one thread that never finishes
	e.nextStart = 1
	e.cfg.MaxCycles = 1 << 20
	err := e.run(context.Background())
	var de *ErrDeadlock
	if !errors.As(err, &de) {
		t.Fatalf("err = %T %v, want *ErrDeadlock", err, err)
	}
	if de.Cycle != 7 || de.Kernel != "one" {
		t.Errorf("ErrDeadlock = %+v, want kernel one at cycle 7", de)
	}
	if want := "sim: deadlock at cycle 7 (no progress and no pending events)"; err.Error() != want {
		t.Errorf("message %q, want %q", err, want)
	}
}

// TestProfileOffBuildsNoUnit: with profiling off the engine has no
// profiling unit, the Result publishes none, and a run stays under an
// allocation ceiling a unit would break: a run measures 258 objects, and a
// unit with its per-thread slices adds eight.
func TestProfileOffBuildsNoUnit(t *testing.T) {
	ck := compileSrc(t, gemmNaiveSrc, nil)
	const dim = 4
	args := func() Args {
		return Args{
			Ints: map[string]int64{"DIM": dim},
			Buffers: map[string]*Buffer{
				"A": NewZeroBuffer(dim * dim), "B": NewZeroBuffer(dim * dim), "C": NewZeroBuffer(dim * dim),
			},
		}
	}
	cfg := fastConfig()
	cfg.Profile.Enabled = false
	e, err := newEngine(ck, args(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.prof != nil {
		t.Fatal("profile-off engine built a profiling unit")
	}
	a := args()
	r, err := Run(context.Background(), ck, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Prof != nil || r.StallsByLoop != nil {
		t.Errorf("profile-off Result publishes Prof %v, StallsByLoop %v", r.Prof, r.StallsByLoop)
	}
	if r.TotalStalls() != 0 {
		t.Errorf("profile-off run counted %d stalls", r.TotalStalls())
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(context.Background(), ck, a, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 262
	if allocs > ceiling {
		t.Errorf("profile-off Run allocated %.0f objects, ceiling %d", allocs, ceiling)
	}
}
