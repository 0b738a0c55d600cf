package depend

// FuzzDepend feeds arbitrary MiniC sources through the analyzer (no
// panics allowed), holds every pair verdict and report against the
// oracle solver of oracle_test.go and, whenever the concrete interpreter
// from enum_test.go can execute the program inside its integer subset,
// cross-checks the report against the enumerated ground truth — the
// same never-under-report contract the fixture harness pins, explored
// over mutated programs.

import (
	"testing"

	"paravis/internal/minic"
)

func FuzzDepend(f *testing.F) {
	seeds := []string{
		stencilSrc, antiSrc, zivSrc, threadShiftSrc, divFoldSrc,
		triangularSrc, predicatedSrc,
		`
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
`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		prog, err := minic.Parse(src, minic.Options{})
		if err != nil {
			return
		}
		var fn *minic.FuncDecl
		var ts *minic.TargetStmt
		for _, fd := range prog.Funcs {
			if target := minic.TargetOf(fd); target != nil {
				fn, ts = fd, target
				break
			}
		}
		if fn == nil {
			return
		}
		env := map[string]int64{}
		for _, p := range fn.Params {
			if !p.Type.IsPointer() {
				env[p.Name] = 5
			}
		}
		compareOracleAll(t, "fuzz", fn, env)
		checkSmallConsts(t)
		if ts.NumThreads > 8 {
			return // bound the enumeration
		}
		// Duplicate declarations make name-keyed ground truth ambiguous
		// (the analyzer keys arrays by declaration); skip those programs.
		names := map[string]bool{}
		for _, p := range fn.Params {
			if names[p.Name] {
				return
			}
			names[p.Name] = true
		}
		if hasDupDecl(fn.Body, names) {
			return
		}

		rep := Analyze(fn, nil) // must not panic
		events, ok := runEnum(fn, ts, env, 50000)
		if !ok {
			return
		}
		dram := map[string]bool{}
		for _, p := range fn.Params {
			if p.Type.IsPointer() {
				dram[p.Name] = true
			}
		}
		soundCheck(t, "fuzz/symbolic", rep, events, dram)
		soundCheck(t, "fuzz/concrete", Analyze(fn, env), events, dram)
	})
}

func hasDupDecl(b *minic.BlockStmt, names map[string]bool) bool {
	if b == nil {
		return false
	}
	for _, s := range b.Stmts {
		if declStmtDup(s, names) {
			return true
		}
	}
	return false
}

func declStmtDup(s minic.Stmt, names map[string]bool) bool {
	switch st := s.(type) {
	case *minic.DeclStmt:
		if names[st.Name] {
			return true
		}
		names[st.Name] = true
	case *minic.BlockStmt:
		return hasDupDecl(st, names)
	case *minic.ForStmt:
		for _, is := range st.Init {
			if declStmtDup(is, names) {
				return true
			}
		}
		return hasDupDecl(st.Body, names)
	case *minic.IfStmt:
		return hasDupDecl(st.Then, names) || hasDupDecl(st.Else, names)
	case *minic.CriticalStmt:
		return hasDupDecl(st.Body, names)
	case *minic.TargetStmt:
		return hasDupDecl(st.Body, names)
	}
	return false
}
