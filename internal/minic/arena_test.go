package minic

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"paravis/internal/workloads"
)

// nodes lists every node Inspect reaches under the program's functions,
// with the functions' parameters.
func nodes(p *Program) []Node {
	var out []Node
	for _, f := range p.Funcs {
		for _, prm := range f.Params {
			out = append(out, prm)
		}
		Inspect(f.Body, func(n Node) bool {
			out = append(out, n)
			return true
		})
	}
	return out
}

// TestParsesShareNoNodes: each Parse owns its slabs, so two parses of one
// source share no node, and renaming a variable in one tree leaves the
// other's printed source as it was.
func TestParsesShareNoNodes(t *testing.T) {
	for _, u := range workloads.Units() {
		a, err := Parse(u.Source, Options{Defines: u.Defines})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Parse(u.Source, Options{Defines: u.Defines})
		if err != nil {
			t.Fatal(err)
		}
		inA := map[Node]bool{}
		for _, n := range nodes(a) {
			inA[n] = true
		}
		for _, n := range nodes(b) {
			if inA[n] {
				t.Fatalf("%s: both parses hold the node %T %p", u.Name, n, n)
			}
		}
		want := Print(b)
		Inspect(a.Funcs[0].Body, func(n Node) bool {
			if id, ok := n.(*Ident); ok {
				id.Name += "_renamed"
			}
			return true
		})
		if Print(a) == want {
			t.Fatalf("%s: renaming every identifier did not change the printed source", u.Name)
		}
		if got := Print(b); got != want {
			t.Errorf("%s: renaming identifiers of one parse changed the other:\n%s", u.Name, got)
		}
	}
}

// TestDeclIDsDense: sema numbers a function's declarations 0..NumDecls-1,
// parameters first and then in source order, a shadowing declaration
// getting an ID of its own, and its loops 0..NumLoops-1 in source
// pre-order. A node built outside Parse reports -1.
func TestDeclIDsDense(t *testing.T) {
	prog, err := Parse(`void k(float *A, int n) {
	int x = 0;
	for (int i = 0; i < n; i++) {
		int x = i;
		for (int j = 0; j < x; j++) {
			A[j] = 1.0f;
		}
	}
	for (int i = 0; i < n; i++) {
		{ int x = 2; A[i] = x; }
	}
}
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Funcs[0]
	var decls []string
	var loops []int
	for _, n := range nodes(prog) {
		switch x := n.(type) {
		case Decl:
			if x.DeclID() != len(decls) {
				t.Errorf("%s@%s: DeclID %d, want %d", x.DeclName(), x.DeclPos(), x.DeclID(), len(decls))
			}
			decls = append(decls, x.DeclName()+"@"+x.DeclPos().String())
		case *ForStmt:
			if x.ID() != len(loops) {
				t.Errorf("%s: loop ID %d, want %d", LoopName(x), x.ID(), len(loops))
			}
			loops = append(loops, x.Pos.Line)
		}
	}
	wantDecls := []string{"A@1:15", "n@1:22", "x@2:6", "i@3:11", "x@4:7", "j@5:12", "i@9:11", "x@10:9"}
	if len(decls) != len(wantDecls) || fn.NumDecls != len(wantDecls) {
		t.Fatalf("declarations %v (NumDecls %d), want %v", decls, fn.NumDecls, wantDecls)
	}
	for i := range decls {
		if decls[i] != wantDecls[i] {
			t.Errorf("declaration %d is %s, want %s", i, decls[i], wantDecls[i])
		}
	}
	if fn.NumLoops != 3 || len(loops) != 3 || loops[0] != 3 || loops[1] != 5 || loops[2] != 9 {
		t.Errorf("loops on lines %v (NumLoops %d), want [3 5 9]", loops, fn.NumLoops)
	}
	for _, d := range []Decl{&Param{Name: "p"}, &DeclStmt{Name: "d"}} {
		if d.DeclID() != -1 || DeclIndex(d, 8) != -1 {
			t.Errorf("%s built outside Parse: DeclID %d, DeclIndex %d, want -1", d.DeclName(), d.DeclID(), DeclIndex(d, 8))
		}
		var s DeclSet
		if s.Add(d); s.Has(d) {
			t.Errorf("%s built outside Parse joined a DeclSet", d.DeclName())
		}
	}
	// A DeclSet holds IDs past its inline word.
	var src strings.Builder
	src.WriteString("void big(int n) {\n")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&src, "\tint v%d = n;\n", i)
	}
	src.WriteString("\tv68 = 1;\n\tv3 = 2;\n}\n")
	big, err := Parse(src.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := Assigned(big.Funcs[0].Body)
	for _, s := range big.Funcs[0].Body.Stmts {
		if d, ok := s.(*DeclStmt); ok && set.Has(d) != (d.Name == "v68" || d.Name == "v3") {
			t.Errorf("Assigned: %s (ID %d) member %t", d.Name, d.DeclID(), set.Has(d))
		}
	}
	clone := &ForStmt{Pos: Pos{Line: 7, Col: 3}}
	if clone.ID() != -1 || LoopName(clone) != "for@7:3" {
		t.Errorf("loop built outside Parse: ID %d, name %q", clone.ID(), LoopName(clone))
	}
}

// TestConcurrentParses parses the six seeds from four goroutines at once
// (run under -race in CI): parses share no mutable state.
func TestConcurrentParses(t *testing.T) {
	units := workloads.Units()
	want := make([]string, len(units))
	for i, u := range units {
		p, err := Parse(u.Source, Options{Defines: u.Defines})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Print(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, u := range units {
				p, err := Parse(u.Source, Options{Defines: u.Defines})
				if err != nil {
					t.Error(err)
					return
				}
				if Print(p) != want[i] {
					t.Errorf("%s: a concurrent parse printed differently", u.Name)
				}
			}
		}()
	}
	wg.Wait()
}
