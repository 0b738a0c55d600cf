package staticcheck

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/schedule"
	"paravis/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixtureRules maps each buggy fixture to the one rule it must trigger
// and the severity that rule carries. allow lists other rules whose
// findings are expected companions at or above that severity (they
// still land in the golden, they just are not counted as strays).
var fixtureRules = map[string]struct {
	rule  string
	sev   Severity
	allow map[string]bool
}{
	"race.mc":               {rule: RuleOMPRace, sev: SevError},
	"map_missing.mc":        {rule: RuleOMPMap, sev: SevError},
	"map_to_written.mc":     {rule: RuleOMPMap, sev: SevWarning},
	"map_from_unwritten.mc": {rule: RuleOMPMap, sev: SevWarning},
	"use_before_init.mc":    {rule: RuleUseBeforeInit, sev: SevWarning},
	"dead_store.mc":         {rule: RuleDeadStore, sev: SevWarning},
	"unused_var.mc":         {rule: RuleUnusedVar, sev: SevWarning},
	"stall.mc":              {rule: RuleStallLint, sev: SevInfo},
	"loop_carried_dep.mc":   {rule: RuleLoopCarriedDep, sev: SevWarning},
	"bank_conflict.mc":      {rule: RuleBankConflict, sev: SevInfo},
	"transform_legality.mc": {rule: RuleTransformLegality, sev: SevInfo,
		allow: map[string]bool{RuleStallLint: true}},
	"array_oob.mc":       {rule: RuleArrayOOB, sev: SevError},
	"array_oob_may.mc":   {rule: RuleArrayOOBMay, sev: SevWarning},
	"div_by_zero.mc":     {rule: RuleDivByZero, sev: SevError},
	"div_by_zero_may.mc": {rule: RuleDivByZero, sev: SevWarning},
	"dead_branch.mc":     {rule: RuleDeadBranch, sev: SevWarning},
	"dead_store_loop.mc": {rule: RuleDeadStore, sev: SevWarning},
}

func render(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFixtureGoldens vets every buggy fixture and compares the full
// diagnostic listing against its golden file. Each fixture must trigger
// exactly its designated rule: no finding of any other rule may appear at
// the designated severity or above.
func TestFixtureGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	for _, path := range paths {
		base := filepath.Base(path)
		t.Run(base, func(t *testing.T) {
			want, ok := fixtureRules[base]
			if !ok {
				t.Fatalf("fixture %s has no entry in fixtureRules", base)
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ds, _ := CheckSource(base, string(src), minic.Options{})
			if !hasRule(ds, want.rule) {
				t.Errorf("expected a %s finding, got:\n%s", want.rule, render(ds))
			}
			for _, d := range ds {
				if d.Severity >= want.sev && d.Rule != want.rule && !want.allow[d.Rule] {
					t.Errorf("stray %s finding at designated severity: %s", d.Rule, d)
				}
				if d.Rule == want.rule && d.Severity != want.sev {
					t.Errorf("rule %s reported at %s, want %s", d.Rule, d.Severity, want.sev)
				}
				if d.Line <= 0 || d.Col <= 0 {
					t.Errorf("diagnostic without position: %s", d)
				}
			}
			golden := path + ".golden"
			got := render(ds)
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantOut, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(wantOut) {
				t.Errorf("diagnostics differ from golden:\n--- got ---\n%s--- want ---\n%s", got, wantOut)
			}
		})
	}
}

// TestSeedWorkloadsVetClean pins the acceptance bar: every seed GEMM
// version, the pi kernel and the example kernels must vet with no
// warning- or error-severity findings.
func TestSeedWorkloadsVetClean(t *testing.T) {
	type unit struct {
		name    string
		src     string
		defines map[string]string
	}
	var units []unit
	for _, v := range workloads.AllGEMMVersions {
		units = append(units, unit{"gemm-" + v.String(), workloads.GEMMSource(v), workloads.GEMMDefines(v)})
	}
	units = append(units, unit{"pi", workloads.PiSource, workloads.PiDefines()})
	for _, path := range []string{"../../examples/kernels/dotprod.mc", "../../examples/kernels/saxpy.mc"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, unit{filepath.Base(path), string(src),
			map[string]string{"VECTOR_LEN": "4", "NT": "4"}})
	}
	for _, u := range units {
		t.Run(u.name, func(t *testing.T) {
			ds, _ := CheckSource(u.name, u.src, minic.Options{Defines: u.defines})
			if !Clean(ds) {
				t.Errorf("seed workload is not vet-clean:\n%s", render(ds))
			}
		})
	}
}

// TestStallLintMatchesPaperNarrative checks the static rule reproduces
// the paper's §V-C memory story: the naive and no-critical versions are
// narrow on A and B, partial vectorization leaves only B scalar, and the
// blocked versions' only innermost scalar DRAM traffic is the C
// writeback.
func TestStallLintMatchesPaperNarrative(t *testing.T) {
	wantArrays := map[workloads.GEMMVersion][]string{
		workloads.GEMMNaive:          {"A", "B"},
		workloads.GEMMNoCritical:     {"A", "B"},
		workloads.GEMMPartialVec:     {"B"},
		workloads.GEMMBlocked:        {"C"},
		workloads.GEMMDoubleBuffered: {"C"},
	}
	for _, v := range workloads.AllGEMMVersions {
		ds, _ := CheckSource(v.String(), workloads.GEMMSource(v), minic.Options{Defines: workloads.GEMMDefines(v)})
		var got []string
		for _, d := range ds {
			if d.Rule == RuleStallLint {
				name := d.Message[strings.Index(d.Message, `"`)+1:]
				got = append(got, name[:strings.Index(name, `"`)])
			}
		}
		want := wantArrays[v]
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: stall-lint arrays = %v, want %v", v, got, want)
		}
	}
}

// TestCheckErrorsSkipsNoErrorRule: every catalogue rule the AST checks
// emit belongs to exactly one check, each check emits only its own
// rules on the fixtures, and no check CheckErrors skips owns a rule the
// catalogue grades SevError.
func TestCheckErrorsSkipsNoErrorRule(t *testing.T) {
	owner := map[string]int{}
	for i, r := range funcRules {
		for _, id := range r.rules {
			if j, dup := owner[id]; dup {
				t.Errorf("rule %s belongs to checks %d and %d", id, j, i)
			}
			owner[id] = i
		}
	}
	notAST := map[string]bool{RuleIRVerify: true, RuleFrontend: true, RuleLower: true, RulePerfBound: true}
	for _, info := range AllRules() {
		i, ok := owner[info.ID]
		switch {
		case !ok && !notAST[info.ID]:
			t.Errorf("rule %s belongs to no AST check", info.ID)
		case ok && info.DefaultSeverity == SevError && !funcRules[i].canError():
			t.Errorf("CheckErrors skips check %d, which owns the error rule %s", i, info.ID)
		}
	}

	paths, err := filepath.Glob(filepath.Join("testdata", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := minic.Parse(string(src), minic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range funcRules {
			ds, _ := runFuncRules(path, prog, func(o funcRule) bool { return reflect.DeepEqual(o.rules, r.rules) })
			for _, d := range ds {
				if owner[d.Rule] != i {
					t.Errorf("check %d (%v) emitted a finding of another rule: %s", i, r.rules, d)
				}
			}
		}
	}
}

// hasRule reports whether any diagnostic carries the given rule ID.
func hasRule(ds []Diagnostic, rule string) bool {
	return slices.ContainsFunc(ds, func(d Diagnostic) bool { return d.Rule == rule })
}

const tinySrc = `
void f(float* A, int n) {
#pragma omp target parallel map(tofrom: A[0:n]) num_threads(2)
  {
    int id = omp_get_thread_num();
    A[id] = A[id] + 1.0f;
  }
}
`

func lowerTiny(t *testing.T) *ir.Kernel {
	t.Helper()
	prog, err := minic.Parse(tinySrc, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := lower.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCheckKernelCorruption exercises the ir-verify rule: structural
// damage to a valid kernel or schedule must surface as a diagnostic.
func TestCheckKernelCorruption(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		k := lowerTiny(t)
		s, err := schedule.Build(k, schedule.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if ds := CheckKernel("tiny", k, s); len(ds) != 0 {
			t.Errorf("clean kernel reported: %s", render(ds))
		}
	})
	t.Run("duplicate node ID", func(t *testing.T) {
		k := lowerTiny(t)
		k.Top.Nodes[1].ID = k.Top.Nodes[0].ID
		ds := CheckKernel("tiny", k, nil)
		if !hasRule(ds, RuleIRVerify) {
			t.Fatal("duplicate node ID not detected")
		}
	})
	t.Run("map without backing param", func(t *testing.T) {
		k := lowerTiny(t)
		k.Maps = append(k.Maps, ir.Map{Name: "ghost"})
		ds := CheckKernel("tiny", k, nil)
		if !hasRule(ds, RuleIRVerify) {
			t.Fatal("ghost map not detected")
		}
	})
	t.Run("result kind mismatch", func(t *testing.T) {
		k := lowerTiny(t)
		corrupted := false
		for _, g := range k.CollectGraphs() {
			for _, n := range g.Nodes {
				if n.Op == ir.OpAdd && !corrupted {
					n.Kind = ir.KindInt
					if n.Args[0].Kind == ir.KindInt {
						n.Kind = ir.KindFloat
					}
					corrupted = true
				}
			}
		}
		if !corrupted {
			t.Skip("no add node to corrupt")
		}
		ds := CheckKernel("tiny", k, nil)
		if !hasRule(ds, RuleIRVerify) {
			t.Fatal("kind mismatch not detected")
		}
	})
	t.Run("schedule start out of range", func(t *testing.T) {
		k := lowerTiny(t)
		s, err := schedule.Build(k, schedule.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range k.Top.Nodes {
			if s.Live[n.ID] {
				s.Start[n.ID] = s.Graph(k.Top).Depth + 3
				break
			}
		}
		ds := CheckKernel("tiny", nil, s)
		if !hasRule(ds, RuleIRVerify) {
			t.Fatal("out-of-range start not detected")
		}
	})
}

// TestFrontendDiagnosticPosition checks parse and sema failures surface
// as positioned frontend diagnostics rather than bare errors.
func TestFrontendDiagnosticPosition(t *testing.T) {
	cases := []string{
		"void f( {",                    // parse error
		"void f(int n) { x = 1; }",     // sema: undeclared
		"void f(int n) { int n = 2; }", // sema: redeclared (if rejected) or fine
	}
	for _, src := range cases {
		ds, _ := CheckSource("bad.mc", src, minic.Options{})
		for _, d := range ds {
			if d.Rule == RuleFrontend && (d.Line <= 0 || d.Col <= 0) {
				t.Errorf("frontend diagnostic without position for %q: %s", src, d)
			}
		}
	}
}
