package staticcheck_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"paravis/internal/autotune"
	"paravis/internal/minic"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

// TestCheckErrorsIsTheErrorSubset: CheckErrors returns exactly the
// SevError findings of CheckProgram, in order, on every fixture, seed
// unit, example kernel and every candidate source of a DIM=16 search —
// so a search that vets with CheckErrors takes the verdicts a full vet
// would.
func TestCheckErrorsIsTheErrorSubset(t *testing.T) {
	type source struct {
		name, src string
		opts      minic.Options
	}
	var corpus []source
	fixtures, err := filepath.Glob("testdata/*.mc")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	examples, err := filepath.Glob("../../examples/*/*.mc")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, path := range append(fixtures, examples...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, source{path, string(src), minic.Options{Defines: map[string]string{"NT": "4"}}})
	}
	for _, u := range workloads.Units() {
		corpus = append(corpus, source{u.Name, u.Source, minic.Options{Defines: u.Defines}})
	}
	for i, src := range searchCandidates(t) {
		corpus = append(corpus, source{fmt.Sprintf("candidate %d", i), src, minic.Options{VectorLanes: 4}})
	}

	errorsSeen := 0
	for _, c := range corpus {
		prog, err := minic.Parse(c.src, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var want []staticcheck.Diagnostic
		for _, d := range staticcheck.CheckProgram(c.name, prog) {
			if d.Severity == staticcheck.SevError {
				want = append(want, d)
			}
		}
		got := staticcheck.CheckErrors(c.name, prog)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: CheckErrors = %v, error subset of CheckProgram = %v", c.name, got, want)
			}
		}
		errorsSeen += len(want)
	}
	t.Logf("%d sources, %d error findings", len(corpus), errorsSeen)
	if errorsSeen == 0 {
		t.Error("no source in the corpus has an error: the comparison proves nothing")
	}
}

// searchCandidates replays a DIM=16 GEMM search and returns the source
// of every candidate that produced one.
func searchCandidates(t *testing.T) []string {
	t.Helper()
	opts := autotune.Options{
		Defines: workloads.GEMMDefines(workloads.GEMMNaive),
		Params:  map[string]int64{"DIM": 16},
	}
	res, err := autotune.Optimize(context.Background(), "gemm-naive", workloads.GEMMSource(workloads.GEMMNaive), opts)
	if err != nil {
		t.Fatal(err)
	}
	base, lanes, err := transform.Canonical(workloads.GEMMSource(workloads.GEMMNaive), transform.Options{Defines: opts.Defines})
	if err != nil {
		t.Fatal(err)
	}
	topts := transform.Options{VectorLanes: lanes, Params: opts.Params}
	sources := map[string]string{"[]": base} // keyed by the step chain that made them
	var out []string
	for _, c := range res.Candidates {
		n := len(c.Steps)
		from, ok := sources[fmt.Sprint(c.Steps[:n-1])]
		if !ok {
			t.Fatalf("%s: no source for its base", c.Name)
		}
		src, err := transform.Apply(from, c.Steps[n-1], topts)
		if err != nil {
			continue // refused, as the search found
		}
		sources[fmt.Sprint(c.Steps)] = src
		out = append(out, src)
	}
	if len(out) == 0 {
		t.Fatal("the search produced no candidate source")
	}
	return out
}
