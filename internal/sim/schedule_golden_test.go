package sim

// TestEngineScheduleGolden pins the scheduler's observable behaviour on
// kernels the six seed workloads do not cover. testdata/schedule.golden was
// written by the polling engine (every thread and frame re-examined on every
// cycle its thread was due) with -update in a clone of the commit before the
// ready/due sets; it must never be regenerated to make a scheduler change
// pass. Each case pins the whole Result and the sha256 of the rendered .prv.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/paraver"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// wide96Src runs more threads than one machine word has bits: a strided
// update, a barrier, a neighbour read and a critical-section reduction.
const wide96Src = `
void wide(float* A, float* S, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) map(tofrom:S[0:1]) num_threads(96)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      A[i] = A[i] * 2.0f + (float)id;
    }
    #pragma omp barrier
    float mine = A[(id + 1) % nt] + A[(id + 37) % nt];
    #pragma omp critical
    {
      S[0] += mine;
    }
  }
}
`

// nest5Src is a 5-deep loop nest with memory traffic at three levels, so a
// thread holds up to five parent frames asleep on their child loops.
const nest5Src = `
void nest(float* A, float* B, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(tofrom:B[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    for (int a = id; a < 8; a += 4) {
      for (int b = 0; b < 2; ++b) {
        float acc = 0.0f;
        for (int c = 0; c < 2; ++c) {
          for (int d = 0; d < 3; ++d) {
            float s = 0.0f;
            for (int e = 0; e < 4; ++e) {
              s += A[(((a*2 + b)*2 + c)*3 + d)*4 + e];
            }
            B[(((a*2 + b)*2 + c)*3 + d)*4] = s;
            acc += s;
          }
        }
        B[((a*2 + b)*2)*12 + 1] = acc;
      }
    }
  }
}
`

// siblingsSrc issues two independent loops per thread and outer iteration:
// one streams DRAM into a BRAM buffer while the other reads a second DRAM
// array and drains a second buffer back to DRAM, so each thread has a read
// and a write in flight, its two loop frames sleep on the one busy read
// port, and the critical section at the end contends.
const siblingsSrc = `
void sib(float* A, float* B, float* C, float* S, int n) {
  #pragma omp target parallel map(to:A[0:n], C[0:n]) map(tofrom:B[0:n]) map(tofrom:S[0:1]) num_threads(6)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    float L0[24];
    float L1[24];
    float tot = 0.0f;
    for (int x = 0; x < 16; ++x) {
      L1[x] = (float)(x + id);
    }
    for (int blk = id; blk < n / 16; blk += nt) {
      for (int x = 0; x < 16; ++x) {
        L0[x] = A[blk*16 + x] + 1.0f;
      }
      for (int y = 0; y < 16; ++y) {
        B[blk*16 + y] = L1[y] * 0.5f + C[blk*16 + y];
      }
      for (int z = 0; z < 16; ++z) {
        tot += L0[z];
        L1[z] = L0[z];
      }
    }
    #pragma omp barrier
    #pragma omp critical
    {
      S[0] += tot;
    }
  }
}
`

type scheduleCase struct {
	name   string
	src    string
	period int64
	n      int
	bufs   []string // float buffers of n words; "S" is one word
}

var scheduleCases = []scheduleCase{
	{name: "wide96", src: wide96Src, period: 64, n: 960, bufs: []string{"A", "S"}},
	{name: "wide96-coarse", src: wide96Src, period: 1024, n: 960, bufs: []string{"A", "S"}},
	{name: "nest5", src: nest5Src, period: 32, n: 384, bufs: []string{"A", "B"}},
	{name: "siblings", src: siblingsSrc, period: 48, n: 768, bufs: []string{"A", "B", "C", "S"}},
	{name: "siblings-tight", src: siblingsSrc, period: 16, n: 192, bufs: []string{"A", "B", "C", "S"}},
}

// args builds the case's launch arguments: n, and float buffers of n
// words ("S" is one word) with a fixed pattern.
func (c scheduleCase) args() Args {
	args := Args{Ints: map[string]int64{"n": int64(c.n)}, Buffers: map[string]*Buffer{}}
	for _, name := range c.bufs {
		words := c.n
		if name == "S" {
			words = 1
		}
		fs := make([]float32, words)
		for i := range fs {
			fs[i] = float32((i*7+len(name))%11) - 4
		}
		args.Buffers[name] = NewFloatBuffer(fs)
	}
	return args
}

// config is fastConfig with the case's sample period.
func (c scheduleCase) config() Config {
	cfg := fastConfig()
	cfg.Profile.SamplePeriod = c.period
	return cfg
}

// runScheduleCase simulates one case with profiling on and renders it.
func runScheduleCase(t *testing.T, c scheduleCase) string {
	t.Helper()
	ck := compileSrc(t, c.src, nil)
	args := c.args()
	r, err := Run(context.Background(), ck, args, c.config())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (sample period %d, n %d)\n", c.name, c.period, c.n)
	renderRun(t, &b, ck, args, c.bufs, r)
	return b.String()
}

// renderRun writes every pinned field of a profiled run's Result, one per
// line, then the named buffers' digests and the trace digest.
func renderRun(t *testing.T, b *strings.Builder, ck *hw.CKernel, args Args, bufs []string, r *Result) {
	t.Helper()
	fmt.Fprintf(b, "cycles %d\n", r.Cycles)
	for i := range r.ThreadStart {
		fmt.Fprintf(b, "thread %d start %d end %d stalls %d int %d fp %d\n",
			i, r.ThreadStart[i], r.ThreadEnd[i], r.Stalls[i], r.IntOps[i], r.FpOps[i])
	}
	// The golden lists the records that stalled, "top" included, then the
	// loops' counters: it predates the top region's record.
	for _, l := range r.Loops {
		if l.Stalls != 0 {
			fmt.Fprintf(b, "stalls %s %d\n", l.Name, l.Stalls)
		}
	}
	writeLoops := func(label string, v func(LoopStats) int64) {
		for _, l := range r.Loops {
			if l.Name != "top" {
				fmt.Fprintf(b, "%s %s %d\n", label, l.Name, v(l))
			}
		}
	}
	writeLoops("iters", func(l LoopStats) int64 { return l.Iters })
	writeLoops("execs", func(l LoopStats) int64 { return l.Execs })
	writeLoops("active", func(l LoopStats) int64 { return l.Active })
	fmt.Fprintf(b, "dram %+v\n", r.DRAM)
	fmt.Fprintf(b, "bram words %d port stalls %d\n", r.BRAMWordsMoved, r.BRAMPortStalls)
	fmt.Fprintf(b, "locks %d contended %d\n", r.LockAcquisitions, r.LockContended)
	fmt.Fprintf(b, "transfer to %d from %d cycles %d\n", r.TransferToDevBytes, r.TransferFromDevBytes, r.TransferCycles)
	for _, name := range bufs {
		sum := sha256.Sum256(wordBytes(args.Buffers[name].Words))
		fmt.Fprintf(b, "buffer %s sha256 %x\n", name, sum[:8])
	}
	var prv bytes.Buffer
	if err := paraver.StreamOf(r.Prof, ck.K.Name, r.Cycles).WritePRV(&prv); err != nil {
		t.Fatalf("%s: render: %v", ck.K.Name, err)
	}
	fmt.Fprintf(b, "prv bytes %d sha256 %x\n", prv.Len(), sha256.Sum256(prv.Bytes()))
}

func wordBytes(ws []uint32) []byte {
	out := make([]byte, 0, 4*len(ws))
	for _, w := range ws {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

func TestEngineScheduleGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range scheduleCases {
		got.WriteString(runScheduleCase(t, c))
	}
	checkGolden(t, "testdata/schedule.golden", got.String())
}

// TestSeedScheduleGolden pins the six seed units at DIM=32 (pi at 25,600
// steps) under a 24-cycle sample period, where window settlement and
// fast-forward jumps meet the seeds' lock, DRAM and BRAM waits on almost
// every window: the whole Result but the step and visit counters, and the
// .prv digest. testdata/seeds.golden was written with -update by the
// engine of the commit before waits were anticipated (a frame stepped to
// find each of its waits); like schedule.golden it must never be
// regenerated to make a scheduler change pass.
func TestSeedScheduleGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile.SamplePeriod = 24
	var got strings.Builder
	for _, u := range seedUnits(t, 32, 25600) {
		args := u.args()
		r, err := Run(context.Background(), u.ck, args, cfg)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		fmt.Fprintf(&got, "== %s (sample period 24, DIM 32)\n", u.name)
		var bufs []string
		for name := range args.Buffers {
			bufs = append(bufs, name)
		}
		sort.Strings(bufs)
		renderRun(t, &got, u.ck, args, bufs, r)
		fmt.Fprintf(&got, "scalars %v int %v jumps %d\n", r.ScalarsOut, r.ScalarsOutInt, r.Jumps)
	}
	checkGolden(t, "testdata/seeds.golden", got.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
