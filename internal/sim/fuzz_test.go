package sim

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Differential testing of the whole compile+simulate stack: random
// expression kernels are generated as MiniC source together with an
// equivalent Go evaluator (same tree, same float32 association), compiled
// through parser -> lowering -> scheduling -> datapath, executed on the
// cycle-level engine, and compared element-wise. Any divergence exposes a
// compiler or engine bug.

type exprGen struct {
	state uint64
}

func (g *exprGen) next(n int) int {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	v := int(g.state >> 33)
	if v < 0 {
		v = -v
	}
	return v % n
}

// gen builds a random float expression over A[i] and i. It returns the
// MiniC source text and the matching evaluator.
func (g *exprGen) gen(depth int) (string, func(a float32, i int32) float32) {
	if depth <= 0 {
		switch g.next(3) {
		case 0:
			return "A[i]", func(a float32, i int32) float32 { return a }
		case 1:
			c := float32(g.next(13)) - 6
			// Render with explicit decimal so the lexer sees a float.
			src := fmt.Sprintf("%.1ff", c)
			return src, func(a float32, i int32) float32 { return c }
		default:
			return "(float)i", func(a float32, i int32) float32 { return float32(i) }
		}
	}
	l, lf := g.gen(depth - 1)
	r, rf := g.gen(depth - 1)
	switch g.next(5) {
	case 0:
		return "(" + l + " + " + r + ")", func(a float32, i int32) float32 { return lf(a, i) + rf(a, i) }
	case 1:
		return "(" + l + " - " + r + ")", func(a float32, i int32) float32 { return lf(a, i) - rf(a, i) }
	case 2:
		return "(" + l + " * " + r + ")", func(a float32, i int32) float32 { return lf(a, i) * rf(a, i) }
	case 3:
		// Division by a strictly positive constant avoids NaN traps while
		// still exercising the FP divider.
		c := float32(g.next(7) + 1)
		return fmt.Sprintf("(%s / %.1ff)", l, c), func(a float32, i int32) float32 { return lf(a, i) / c }
	default:
		cond := "(" + l + " < " + r + ")"
		t, tf := g.gen(depth - 1)
		return "(" + cond + " ? " + t + " : " + r + ")",
			func(a float32, i int32) float32 {
				if lf(a, i) < rf(a, i) {
					return tf(a, i)
				}
				return rf(a, i)
			}
	}
}

func TestSimDifferentialFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fuzz is slow")
	}
	n := 24
	in := make([]float32, n)
	for i := range in {
		in[i] = float32((i*11)%17)/4 - 2
	}
	check := func(seed uint64) bool {
		g := &exprGen{state: seed}
		exprSrc, eval := g.gen(2 + g.next(2))
		src := fmt.Sprintf(`
void fz(float* A, float* B, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:B[0:n]) num_threads(2)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      B[i] = %s;
    }
  }
}
`, exprSrc)
		ck := compileSrc(t, src, nil)
		out := NewZeroBuffer(n)
		_, err := Run(context.Background(), ck, Args{
			Ints:    map[string]int64{"n": int64(n)},
			Buffers: map[string]*Buffer{"A": NewFloatBuffer(in), "B": out},
		}, fastConfig())
		if err != nil {
			t.Logf("seed %d: run failed: %v\nexpr: %s", seed, err, exprSrc)
			return false
		}
		got := out.Floats()
		for i := 0; i < n; i++ {
			want := eval(in[i], int32(i))
			if got[i] != want && !(isNaN32(got[i]) && isNaN32(want)) {
				t.Logf("seed %d expr %s: B[%d] = %v, want %v", seed, exprSrc, i, got[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Integer differential fuzz: exercises int arithmetic including division
// and modulo by nonzero constants, plus logical combinations.
func (g *exprGen) genInt(depth int) (string, func(a, i int32) int32) {
	if depth <= 0 {
		switch g.next(3) {
		case 0:
			return "A[i]", func(a, i int32) int32 { return a }
		case 1:
			c := int32(g.next(21)) - 10
			return fmt.Sprintf("(%d)", c), func(a, i int32) int32 { return c }
		default:
			return "i", func(a, i int32) int32 { return i }
		}
	}
	l, lf := g.genInt(depth - 1)
	r, rf := g.genInt(depth - 1)
	switch g.next(6) {
	case 0:
		return "(" + l + " + " + r + ")", func(a, i int32) int32 { return lf(a, i) + rf(a, i) }
	case 1:
		return "(" + l + " - " + r + ")", func(a, i int32) int32 { return lf(a, i) - rf(a, i) }
	case 2:
		return "(" + l + " * " + r + ")", func(a, i int32) int32 { return lf(a, i) * rf(a, i) }
	case 3:
		c := int32(g.next(9) + 1)
		return fmt.Sprintf("(%s / %d)", l, c), func(a, i int32) int32 { return lf(a, i) / c }
	case 4:
		c := int32(g.next(9) + 1)
		return fmt.Sprintf("(%s %% %d)", l, c), func(a, i int32) int32 { return lf(a, i) % c }
	default:
		return "(" + l + " < " + r + " ? " + l + " : " + r + ")",
			func(a, i int32) int32 {
				if lf(a, i) < rf(a, i) {
					return lf(a, i)
				}
				return rf(a, i)
			}
	}
}

func TestSimDifferentialFuzzInt(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fuzz is slow")
	}
	n := 20
	in := make([]int32, n)
	for i := range in {
		in[i] = int32((i*13)%23) - 11
	}
	check := func(seed uint64) bool {
		g := &exprGen{state: seed ^ 0x9e3779b97f4a7c15}
		exprSrc, eval := g.genInt(2 + g.next(2))
		src := fmt.Sprintf(`
void fz(int* A, int* B, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:B[0:n]) num_threads(2)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      B[i] = %s;
    }
  }
}
`, exprSrc)
		ck := compileSrc(t, src, nil)
		out := NewZeroBuffer(n)
		_, err := Run(context.Background(), ck, Args{
			Ints:    map[string]int64{"n": int64(n)},
			Buffers: map[string]*Buffer{"A": NewIntBuffer(in), "B": out},
		}, fastConfig())
		if err != nil {
			t.Logf("seed %d: run failed: %v\nexpr: %s", seed, err, exprSrc)
			return false
		}
		got := out.Ints()
		for i := 0; i < n; i++ {
			want := eval(in[i], int32(i))
			if got[i] != want {
				t.Logf("seed %d expr %s: B[%d] = %d, want %d", seed, exprSrc, i, got[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func isNaN32(f float32) bool { return math.IsNaN(float64(f)) }
