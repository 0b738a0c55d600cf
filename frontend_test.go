package paravis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
//     stacks, induction-variable recognisers or read/write classifiers.
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
		"rwState":           "a private read/write classifier (use minic.Accesses)",
		"walkSubscripts":    "a private read/write classifier (use minic.Accesses)",
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

// TestNodeTablesNotMaps keeps the compile back end on dense tables: it
// fails on a map type keyed by *ir.Node, *ir.Graph, *Node or *Graph in the
// non-test Go of internal/ir, schedule, hw, perfbound and area, where
// per-node facts live in slices indexed by the kernel-dense Node.ID and
// per-graph ones by Graph.ID. internal/depend's IR pass is held to the
// same by TestDependAlgebraNotMaps.
func TestNodeTablesNotMaps(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"ir", "schedule", "hw", "perfbound", "area"} {
		paths, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", dir, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				key := ""
				if star, ok := m.Key.(*ast.StarExpr); ok {
					switch x := star.X.(type) {
					case *ast.Ident:
						key = x.Name
					case *ast.SelectorExpr:
						if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "ir" {
							key = x.Sel.Name
						}
					}
				}
				if key == "Node" || key == "Graph" {
					t.Errorf("%s: a map keyed by *%s; per-node facts live in ID-indexed tables", fset.Position(m.Pos()), key)
				}
				return true
			})
		}
	}
}

// TestDependAlgebraNotMaps keeps the dependence analysis on its
// per-run algebra: no non-test file of internal/depend declares a map
// type (a polynomial is a sorted term slice over interned monomials), a
// map keyed by one of the analysis' own records (*loopInfo, *access,
// *arrayInfo: affine coefficients are indexed by loop ID) or by *ir.Node
// (the IR pass's per-node facts are a Node.ID table), or a
// map[string]int64 other than the parameter environment env.
func TestDependAlgebraNotMaps(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join("internal", "depend", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("internal/depend: no Go files (%v)", err)
	}
	banned := map[string]bool{"loopInfo": true, "access": true, "arrayInfo": true, "Node": true}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if _, ok := x.Type.(*ast.MapType); ok {
					t.Errorf("%s: type %s is a map", fset.Position(x.Pos()), x.Name.Name)
				}
			case *ast.Field:
				if len(x.Names) == 1 && x.Names[0].Name == "env" {
					return false
				}
			case *ast.MapType:
				key, star := x.Key, false
				if s, ok := key.(*ast.StarExpr); ok {
					key, star = s.X, true
				}
				if sel, ok := key.(*ast.SelectorExpr); ok {
					key = sel.Sel
				}
				id, _ := key.(*ast.Ident)
				val, _ := x.Value.(*ast.Ident)
				switch {
				case id == nil:
				case star && banned[id.Name]:
					t.Errorf("%s: a map keyed by *%s; per-loop and per-node facts live in ID-indexed tables", fset.Position(x.Pos()), id.Name)
				case id.Name == "string" && val != nil && val.Name == "int64":
					t.Errorf("%s: a map[string]int64 that is not the parameter environment", fset.Position(x.Pos()))
				}
			}
			return true
		})
	}
}

// TestPerfboundEvalNotMaps keeps perfbound's evaluator on its per-Analyze
// arena: internal/perfbound/eval.go declares no map type but the launch
// environment and the trip hints it is handed (parameters env and hints),
// and gstats keeps its per-array counts in a name-sorted slice, not in
// name-keyed maps.
func TestPerfboundEvalNotMaps(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, filepath.Join("internal", "perfbound", name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	banMaps := func(root ast.Node, what string) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				if len(x.Names) == 1 && (x.Names[0].Name == "env" || x.Names[0].Name == "hints") {
					return false
				}
			case *ast.MapType:
				t.Errorf("%s: a map type in %s; the evaluator's state lives in its arena", fset.Position(x.Pos()), what)
			}
			return true
		})
	}
	banMaps(parse("eval.go"), "the evaluator")
	found := false
	ast.Inspect(parse("perfbound.go"), func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "gstats" {
			found = true
			banMaps(ts, "gstats")
		}
		return !found
	})
	if !found {
		t.Error("internal/perfbound/perfbound.go declares no gstats")
	}
}

// TestDeclTablesNotMaps: the front half keeps its per-declaration and
// per-loop facts in tables indexed by sema's dense IDs (Decl.DeclID,
// ForStmt.ID), as the back end indexes by Node.ID. No non-test file of
// the ported packages declares a map keyed by a declaration, a loop or a
// lowering slot.
func TestDeclTablesNotMaps(t *testing.T) {
	banned := map[string]bool{"Decl": true, "*ForStmt": true, "*DeclStmt": true, "*slot": true}
	fset := token.NewFileSet()
	for _, dir := range []string{"minic", "absint", "lower", "depend", "staticcheck"} {
		paths, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("internal/%s: no Go files (%v)", dir, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				key, star := m.Key, ""
				if s, ok := key.(*ast.StarExpr); ok {
					key, star = s.X, "*"
				}
				name := ""
				switch x := key.(type) {
				case *ast.Ident:
					name = x.Name
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "minic" {
						name = x.Sel.Name
					}
				}
				if banned[star+name] {
					t.Errorf("%s: a map keyed by %s%s; per-declaration facts live in Decl-ID tables", fset.Position(m.Pos()), star, name)
				}
				return true
			})
		}
	}
}

// TestBenchmarkKernelsMatchExamples: the benchmark module embeds copies of
// three example kernels (go:embed cannot reach outside its directory);
// each must stay byte-equal to its original.
func TestBenchmarkKernelsMatchExamples(t *testing.T) {
	for copied, orig := range map[string]string{
		"benchmark/testdata/dotprod.mc": "examples/kernels/dotprod.mc",
		"benchmark/testdata/saxpy.mc":   "examples/kernels/saxpy.mc",
		"benchmark/testdata/gemm.mc":    "examples/gemm/gemm.mc",
	} {
		got, err := os.ReadFile(copied)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(orig)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s; copy the example over it", copied, orig)
		}
	}
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
