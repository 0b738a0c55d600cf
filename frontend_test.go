package paravis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"paravis/internal/absint"
	"paravis/internal/depend"
	"paravis/internal/minic"
)

// countedRow is one loop form. counted is minic.Counted's reading ("" =
// not a counted loop). The other three columns are what the two analyses
// built on it answer; they were recorded from the commit before the
// recognisers were unified (when depend and absint each had their own)
// and must not move:
//   - stride: depend's per-iteration stride of the write ("?" = the
//     induction variable was not recognised);
//   - bounded: depend proved the enclosing r loop free of carried
//     dependences, which needs this loop's bound (rows of A are 64 apart);
//   - trips: absint's per-entry trip bracket.
type countedRow struct {
	loop    string
	counted string
	stride  string
	bounded bool
	trips   string
}

var countedRows = []countedRow{
	// One row per accepted step form, condition orientation and operator.
	{"for (int i = 0; i < 64; ++i) { A[r * 64 + i] = 0.0f; }", "i +1*1 < 64", "1", true, "64"},
	{"for (int i = 0; i < 64; i++) { A[r * 64 + i] = 0.0f; }", "i +1*1 < 64", "1", true, "64"},
	{"for (int i = 63; i >= 0; i--) { A[r * 64 + i] = 0.0f; }", "i -1*1 >= 0", "-1", true, "64"},
	{"for (int i = 63; i > 0; --i) { A[r * 64 + i] = 0.0f; }", "i -1*1 > 0", "-1", true, "63"},
	{"for (int i = 0; i < 64; i += 2) { A[r * 64 + i] = 0.0f; }", "i +1*2 < 64", "2", true, "32"},
	{"for (int i = 62; i > 0; i -= 2) { A[r * 64 + i] = 0.0f; }", "i -1*2 > 0", "-2", true, "31"},
	{"for (int i = 0; i < 64; i = i + 2) { A[r * 64 + i] = 0.0f; }", "i +1*2 < 64", "2", true, "32"},
	{"for (int i = 0; i < 64; i = 2 + i) { A[r * 64 + i] = 0.0f; }", "i +1*2 < 64", "2", true, "32"},
	{"for (int i = 62; i >= 0; i = i - 2) { A[r * 64 + i] = 0.0f; }", "i -1*2 >= 0", "-2", true, "32"},
	{"for (int i = 0; 64 > i; i++) { A[r * 64 + i] = 0.0f; }", "i +1*1 < 64", "1", true, "64"},
	{"for (int i = 63; 0 <= i; i--) { A[r * 64 + i] = 0.0f; }", "i -1*1 >= 0", "-1", true, "64"},
	{"for (int i = 0; i <= 63; i++) { A[r * 64 + i] = 0.0f; }", "i +1*1 <= 63", "1", true, "64"},
	{"for (int i = 0; i < 64; i -= -2) { A[r * 64 + i] = 0.0f; }", "i -1*-2 < 64", "2", true, "32"},
	// The induction variable need not be declared by the loop, nor be
	// the only or the first variable the header steps (the
	// double-buffered GEMM counts its buffers alongside k).
	{"int i = 0; for (i = 0; i < 64; i++) { A[r * 64 + i] = 0.0f; }", "i +1*1 < 64", "1", true, "64"},
	{"for (int k = 0, b = 0; k < 64; k += 8, ++b) { A[r * 64 + k] = 0.0f; }", "k +1*8 < 64", "8", true, "8"},
	{"for (int b = 0, k = 0; k < 64; ++b, k += 8) { A[r * 64 + k] = 0.0f; }", "k +1*8 < 64", "8", true, "8"},
	// Counted, but the consumers cannot use all of it: a step that moves
	// away from the bound, a symbolic step, an equality test, a bound
	// another clause keeps changing.
	{"for (int i = 0; i < 64; i += -2) { A[r * 64 + i] = 0.0f; }", "i +1*-2 < 64", "-2", false, "[1, +inf]"},
	{"for (int i = 0; i > 64; i++) { A[r * 64 + i] = 0.0f; }", "i +1*1 > 64", "1", false, "0"},
	{"for (int i = 0; i < 64; i += n) { A[r * 64 + i] = 0.0f; }", "i +1*n < 64", "?", false, "[1, +inf]"},
	{"for (int i = 0; i != 64; i++) { A[r * 64 + i] = 0.0f; }", "i +1*1 != 64", "1", false, "[1, +inf]"},
	{"for (int i = 0, j = 64; i < j; i++, j--) { A[r * 64 + i] = 0.0f; }", "i +1*1 < j", "1", false, "[1, +inf]"},
	{"for (int i = 0; i < 64; i += 0) { A[r * 64 + i] = 0.0f; }", "i +1*0 < 64", "?", false, "[1, +inf]"},
	// Not counted: the variable is also assigned in the body, the
	// condition is not a comparison of it, the step is not additive, or
	// there is no stepping post clause.
	{"for (int i = 0; i < 64; i++) { A[r * 64 + i] = 0.0f; i = i + 1; }", "", "?", false, "[1, +inf]"},
	{"for (int i = 0; i < 64 && i < 32; i++) { A[r * 64 + i] = 0.0f; }", "", "?", false, "[1, +inf]"},
	{"for (int i = 1; i; i++) { A[r * 64 + i] = 0.0f; }", "", "?", false, "[1, +inf]"},
	{"for (int i = 1; i < 64; i *= 2) { A[r * 64 + i] = 0.0f; }", "", "?", false, "[1, +inf]"},
	{"for (int i = 0; i < 64; i = i * 2) { A[r * 64 + i] = 0.0f; }", "", "?", false, "[1, +inf]"},
	{"for (int i = 0; i < 64; ) { A[r * 64 + i] = 0.0f; i++; }", "", "?", false, "[1, +inf]"},
}

// TestCountedLoopForms pins the one counted-loop recogniser, and the
// answers of both analyses built on it, for every accepted and rejected
// header form.
func TestCountedLoopForms(t *testing.T) {
	for _, row := range countedRows {
		src := "void k(float *A, int n) {\n" +
			"#pragma omp target parallel map(tofrom: A[0:256]) num_threads(1)\n" +
			"{\nfor (int r = 0; r < 4; r++) {\n" + row.loop + "\n}\n}\n}\n"
		prog, err := minic.Parse(src, minic.Options{})
		if err != nil {
			t.Errorf("%s: %v", row.loop, err)
			continue
		}
		fn := prog.Funcs[0]
		var outer, inner *minic.ForStmt
		minic.Inspect(fn.Body, func(n minic.Node) bool {
			if f, ok := n.(*minic.ForStmt); ok {
				if outer == nil {
					outer = f
				} else {
					inner = f
				}
			}
			return true
		})

		counted := ""
		if cl := minic.Counted(inner); cl != nil {
			step := "1"
			if cl.Step != nil {
				step = minic.PrintExpr(cl.Step)
			}
			counted = fmt.Sprintf("%s %+d*%s %s %s", cl.IV.DeclName(), cl.Sign, step, cl.Op, minic.PrintExpr(cl.Bound))
			if cl.Post == nil || cl.IV.DeclType().Basic != minic.Int {
				t.Errorf("%s: malformed result %+v", row.loop, cl)
			}
		}
		if counted != row.counted {
			t.Errorf("%s:\n  Counted = %q, want %q", row.loop, counted, row.counted)
		}

		rep := depend.Analyze(fn, nil)
		stride := "?"
		for _, a := range rep.Loop(minic.LoopName(inner)).Accesses {
			if a.Write && a.StrideKnown {
				stride = fmt.Sprint(a.Stride)
			}
		}
		bounded := rep.Loop(minic.LoopName(outer)).Legal.Unroll == depend.Proven
		if stride != row.stride || bounded != row.bounded {
			t.Errorf("%s:\n  depend stride %s bounded %v, want %s %v", row.loop, stride, bounded, row.stride, row.bounded)
		}

		ai := absint.Analyze(fn, absint.Options{})
		if trips := ai.Loop(inner).Trips.String(); trips != row.trips {
			t.Errorf("%s:\n  absint trips %s, want %s", row.loop, trips, row.trips)
		}
	}
}

// TestOneASTFrontEnd keeps the pieces internal/minic owns from growing
// private copies again. It reads every non-test Go file outside
// internal/minic (and outside the benchmark module) and fails on
//   - a string literal that formats or matches the "for@line:col" loop
//     key (minic.LoopName and minic.ParseLoopName are the only codec);
//   - an identifier that belonged to one of the deleted lexical-scope
//     stacks or induction-variable recognisers.
func TestOneASTFrontEnd(t *testing.T) {
	banned := map[string]string{
		"scopes":            "a lexical scope stack (sema binds every Ident and MapClause to its Decl)",
		"scopeFrame":        "a lexical scope stack (sema binds every Ident and MapClause to its Decl)",
		"pushScope":         "a lexical scope stack (sema binds every Ident and MapClause to its Decl)",
		"popScope":          "a lexical scope stack (sema binds every Ident and MapClause to its Decl)",
		"hostVarTypes":      "name-keyed host variable types (read MapClause.Decl instead)",
		"savedSyms":         "scoped save/restore of bindings (key by minic.Decl instead)",
		"savedArrs":         "scoped save/restore of bindings (key by minic.Decl instead)",
		"recognizeStep":     "an induction-variable recogniser (use minic.Counted)",
		"recognizeStepStmt": "an induction-variable recogniser (use minic.Counted)",
		"recognizeBound":    "a loop-bound matcher (use minic.Counted and ExclusiveBound)",
		"condTests":         "an induction-variable recogniser (use minic.Counted)",
		"condMentions":      "an induction-variable recogniser (use minic.Counted)",
	}
	eachSourceFile(t, filepath.Join("internal", "minic"), func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BasicLit:
				if x.Kind == token.STRING && strings.Contains(x.Value, "for@") {
					t.Errorf("%s: string literal %s spells the loop key; use minic.LoopName / minic.ParseLoopName", fset.Position(x.Pos()), x.Value)
				}
			case *ast.Ident:
				if why, bad := banned[x.Name]; bad {
					t.Errorf("%s: identifier %s suggests %s", fset.Position(x.Pos()), x.Name, why)
				}
			}
			return true
		})
	})
}

// TestOneIntervalLattice keeps absint and perfbound on the one interval
// type: it fails on any struct outside internal/interval (and outside
// the benchmark module) that declares int64 fields Lo and Hi.
func TestOneIntervalLattice(t *testing.T) {
	eachSourceFile(t, filepath.Join("internal", "interval"), func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			bounds := 0
			for _, field := range st.Fields.List {
				if typ, ok := field.Type.(*ast.Ident); ok && typ.Name == "int64" {
					for _, name := range field.Names {
						if name.Name == "Lo" || name.Name == "Hi" {
							bounds++
						}
					}
				}
			}
			if bounds == 2 {
				t.Errorf("%s: a struct with int64 Lo and Hi is a private interval type; use interval.Interval", fset.Position(st.Pos()))
			}
			return true
		})
	})
}

// TestOneMachineModel keeps every static model of the simulated machine
// on sim.Config: it fails on any struct outside internal/sim (and outside
// the benchmark module) that declares a BRAMLatency, SpinRetry or
// ThreadStart field, the mark of a private copy of the machine's
// configuration.
func TestOneMachineModel(t *testing.T) {
	simOnly := map[string]bool{"BRAMLatency": true, "SpinRetry": true, "ThreadStart": true}
	eachSourceFile(t, filepath.Join("internal", "sim"), func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if simOnly[name.Name] {
							t.Errorf("%s: field %s copies the simulated machine's configuration; embed or pass sim.Config", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
			return true
		})
	})
}

// eachSourceFile parses every non-test Go file of the module outside
// skip, the benchmark module and hidden directories, and hands it to fn.
func eachSourceFile(t *testing.T, skip string, fn func(*token.FileSet, *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == skip || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
