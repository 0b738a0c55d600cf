package minic

import (
	"strings"
	"testing"

	"paravis/internal/workloads"
)

// gemmNaive is the paper's Fig. 3 kernel (naive GEMM with a critical
// section), lightly adapted to the MiniC subset.
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

// piKernel is the paper's Fig. 10 kernel (infinite series for pi).
const piKernel = `
#define DTYPE float
#define BS_compute 8

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
        sum[j%4] += 4.0f / (1.0f+x*x);
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

func mustParse(t *testing.T, src string, opts Options) *Program {
	t.Helper()
	prog, err := Parse(src, opts)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog
}

// funcNamed returns the program's function with the given name, or nil.
func funcNamed(p *Program, name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func TestParseGEMMNaive(t *testing.T) {
	prog := mustParse(t, gemmNaive, Options{})
	f := funcNamed(prog, "matmul")
	if f == nil {
		t.Fatal("matmul not found")
	}
	if len(f.Params) != 4 {
		t.Fatalf("params = %d, want 4", len(f.Params))
	}
	if !f.Params[0].Type.IsPointer() || f.Params[0].Type.Elem.Basic != Float {
		t.Errorf("param A type = %s, want float*", f.Params[0].Type)
	}
	if f.Params[3].Type.Basic != Int {
		t.Errorf("param DIM type = %s, want int", f.Params[3].Type)
	}
	_, ts, err := FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumThreads != 8 {
		t.Errorf("num_threads = %d, want 8", ts.NumThreads)
	}
	if len(ts.Maps) != 3 {
		t.Fatalf("maps = %d, want 3", len(ts.Maps))
	}
	if ts.Maps[0].Dir != MapFrom || ts.Maps[0].Name != "C" {
		t.Errorf("map[0] = %s %s", ts.Maps[0].Dir, ts.Maps[0].Name)
	}
	if ts.Maps[1].Dir != MapTo || ts.Maps[1].Name != "A" {
		t.Errorf("map[1] = %s %s", ts.Maps[1].Dir, ts.Maps[1].Name)
	}
	if ts.Maps[2].Dir != MapTo || ts.Maps[2].Name != "B" {
		t.Errorf("map[2] = %s %s", ts.Maps[2].Dir, ts.Maps[2].Name)
	}
}

func TestParsePiKernel(t *testing.T) {
	prog := mustParse(t, piKernel, Options{})
	f := funcNamed(prog, "pi")
	if f == nil {
		t.Fatal("pi not found")
	}
	if f.Ret.Basic != Float {
		t.Errorf("return type = %s, want float", f.Ret)
	}
	_, ts, err := FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	// scalar maps: step (to), final_sum (tofrom)
	if len(ts.Maps) != 2 || ts.Maps[0].Low != nil || ts.Maps[1].Low != nil {
		t.Fatalf("unexpected maps: %+v", ts.Maps)
	}
	if ts.Maps[1].Dir != MapToFrom {
		t.Errorf("final_sum dir = %s, want tofrom", ts.Maps[1].Dir)
	}
}

func TestParseUnrollPragma(t *testing.T) {
	prog := mustParse(t, piKernel, Options{})
	_, ts, _ := FindTarget(prog)
	var unrolled *ForStmt
	var walk func(b *BlockStmt)
	walk = func(b *BlockStmt) {
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *ForStmt:
				if st.Unroll > 0 {
					unrolled = st
				}
				walk(st.Body)
			case *BlockStmt:
				walk(st)
			case *CriticalStmt:
				walk(st.Body)
			}
		}
	}
	walk(ts.Body)
	if unrolled == nil {
		t.Fatal("no unrolled loop found")
	}
	if unrolled.Unroll != 8 {
		t.Errorf("unroll factor = %d, want 8 (BS_compute)", unrolled.Unroll)
	}
}

func TestParseVectorLoad(t *testing.T) {
	src := `
void f(float* A, int DIM) {
  #pragma omp target parallel map(to:A[0:DIM]) num_threads(2)
  {
    VECTOR v = *((VECTOR*)&A[omp_get_thread_num()*4]);
    float x = v[0] + v[3];
    A[0] = x;
  }
}
`
	prog := mustParse(t, src, Options{VectorLanes: 4})
	_, ts, err := FindTarget(prog)
	if err != nil {
		t.Fatal(err)
	}
	decl := ts.Body.Stmts[0].(*DeclStmt)
	vl, ok := decl.Init.(*VecLoad)
	if !ok {
		t.Fatalf("init is %T, want *VecLoad", decl.Init)
	}
	if !vl.Type().IsVector() || vl.Type().Lanes != 4 {
		t.Errorf("vecload type = %s", vl.Type())
	}
}

func TestParseVectorStoreTarget(t *testing.T) {
	src := `
void f(float* C) {
  #pragma omp target parallel map(from:C[0:16]) num_threads(1)
  {
    VECTOR acc = {0.0f};
    *((VECTOR*)&C[4]) = acc;
    *((VECTOR*)&C[8]) += acc;
  }
}
`
	prog := mustParse(t, src, Options{})
	_, ts, _ := FindTarget(prog)
	st1 := ts.Body.Stmts[1].(*ExprStmt).X.(*AssignExpr)
	if _, ok := st1.LHS.(*VecLoad); !ok {
		t.Fatalf("store target is %T, want *VecLoad", st1.LHS)
	}
	st2 := ts.Body.Stmts[2].(*ExprStmt).X.(*AssignExpr)
	if st2.Op == nil || *st2.Op != OpAdd {
		t.Errorf("expected compound += store")
	}
}

func TestParseMultiDeclFor(t *testing.T) {
	src := `
void f(int* A) {
  #pragma omp target parallel map(tofrom:A[0:64]) num_threads(1)
  {
    for (int k = 0, buffer = 0; k < 8; k += 2, ++buffer) {
      A[buffer] = k;
    }
  }
}
`
	prog := mustParse(t, src, Options{})
	_, ts, _ := FindTarget(prog)
	f := ts.Body.Stmts[0].(*ForStmt)
	if len(f.Init) != 2 {
		t.Fatalf("init decls = %d, want 2", len(f.Init))
	}
	if len(f.Post) != 2 {
		t.Fatalf("post stmts = %d, want 2", len(f.Post))
	}
}

func TestParseLocalArrays(t *testing.T) {
	src := `
#define BLOCK_SIZE 8
#define BUFFER_SIZE 2
void f(float* A) {
  #pragma omp target parallel map(to:A[0:64]) num_threads(1)
  {
    VECTOR A_local[BUFFER_SIZE][BLOCK_SIZE];
    float C_local[BLOCK_SIZE];
    A_local[0][0] = *((VECTOR*)&A[0]);
    C_local[1] = A_local[0][0][2];
    A[0] = C_local[1];
  }
}
`
	prog := mustParse(t, src, Options{})
	_, ts, _ := FindTarget(prog)
	d := ts.Body.Stmts[0].(*DeclStmt)
	if !d.Typ.IsArray() || len(d.Typ.Dims) != 2 || d.Typ.Dims[0] != 2 || d.Typ.Dims[1] != 8 {
		t.Fatalf("A_local type = %s", d.Typ)
	}
	if !d.Typ.Elem.IsVector() {
		t.Fatalf("A_local elem = %s, want vector", d.Typ.Elem)
	}
	// The lane access A_local[0][0][2] must become VecElem(Index(...)).
	asn := ts.Body.Stmts[3].(*ExprStmt).X.(*AssignExpr)
	if _, ok := asn.RHS.(*VecElem); !ok {
		t.Fatalf("RHS is %T, want *VecElem", asn.RHS)
	}
}

func TestParseTernaryAndCast(t *testing.T) {
	src := `
void f(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:16]) num_threads(1)
  {
    float x = (float)n + 0.5f;
    A[0] = (n == 1 ? 0.0f : 1.0f) * x;
  }
}
`
	prog := mustParse(t, src, Options{})
	_, ts, _ := FindTarget(prog)
	d := ts.Body.Stmts[0].(*DeclStmt)
	if _, ok := d.Init.(*Binary); !ok {
		t.Fatalf("init is %T", d.Init)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing semicolon", "void f() { int x = 1 }", "expected"},
		{"undeclared", "void f() { x = 1; }", "undeclared"},
		{"two targets", `void f(int* A){
			#pragma omp target parallel map(tofrom:A[0:4]) num_threads(1)
			{ A[0] = 1; }
			#pragma omp target parallel map(tofrom:A[0:4]) num_threads(1)
			{ A[0] = 2; }
		}`, "one target region"},
		{"critical outside target", "void f() { \n#pragma omp critical\n { int x = 1; x = x; } }", "outside a target"},
		{"bad map", `void f(float* A){
			#pragma omp target parallel map(sideways:A[0:4]) num_threads(1)
			{ A[0] = 1; }
		}`, "map direction"},
		{"pointer map without section", `void f(float* A){
			#pragma omp target parallel map(to:A) num_threads(1)
			{ A[0] = 1; }
		}`, "array section"},
		{"negative array dim", "void f() { int a[0]; }", "positive"},
		{"nonconst array dim", "void f(int n) { int a[n]; }", "constant"},
		{"assign to rvalue", "void f() { int x = 1; x + 1 = 2; }", "lvalue"},
		{"unknown call", "void f() { int x = foo(); }", "unknown function"},
		{"omp builtin outside target", "void f() { int x = omp_get_thread_num(); }", "target region"},
		{"mod float", "void f() { float x = 1.0; float y = x % 2.0; }", "integer"},
		{"return in target", `void f(int* A){
			#pragma omp target parallel map(tofrom:A[0:4]) num_threads(1)
			{ return; }
		}`, "not allowed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src, Options{})
			if err == nil {
				t.Fatalf("expected error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestParseIfElse(t *testing.T) {
	src := `
void f(int* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:8]) num_threads(1)
  {
    if (n < 4) {
      A[0] = 1;
    } else {
      A[0] = 2;
    }
    if (n > 2)
      A[1] = 3;
  }
}
`
	prog := mustParse(t, src, Options{})
	_, ts, _ := FindTarget(prog)
	ifst := ts.Body.Stmts[0].(*IfStmt)
	if ifst.Else == nil {
		t.Error("else branch missing")
	}
	if2 := ts.Body.Stmts[1].(*IfStmt)
	if if2.Else != nil {
		t.Error("unexpected else")
	}
	if len(if2.Then.Stmts) != 1 {
		t.Error("unbraced then body should have one statement")
	}
}

func TestParseVectorLanesFromDefine(t *testing.T) {
	src := `
void f(float* A) {
  #pragma omp target parallel map(to:A[0:64]) num_threads(1)
  {
    VECTOR v = *((VECTOR*)&A[0]);
    A[0] = v[7];
  }
}
`
	prog := mustParse(t, src, Options{Defines: map[string]string{"VECTOR_LEN": "8"}})
	_, ts, _ := FindTarget(prog)
	d := ts.Body.Stmts[0].(*DeclStmt)
	if d.Typ.Lanes != 8 {
		t.Errorf("lanes = %d, want 8", d.Typ.Lanes)
	}
}

func TestFindTargetMissing(t *testing.T) {
	prog := mustParse(t, "void f() { int x = 1; x = x + 1; }", Options{})
	if _, _, err := FindTarget(prog); err == nil {
		t.Fatal("expected error for missing target region")
	}
}

// TestParseAllocationCeiling: lexing reads the source in place (token
// texts are substrings, the token slice is sized up front, the macro table
// is not cloned per lexer) and the scalar types are shared values, so
// parsing the naive GEMM with its defines takes 182 allocations (223 with
// a fresh type per TypeInt/TypeFloat call, 355 with the []rune lexer too).
func TestParseAllocationCeiling(t *testing.T) {
	w := workloads.Units()[0]
	const ceiling = 190
	got := testing.AllocsPerRun(5, func() {
		if _, err := Parse(w.Source, Options{Defines: w.Defines}); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("minic.Parse(gemm-naive): %.0f allocations, ceiling %d", got, ceiling)
	}
}
