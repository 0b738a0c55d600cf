package api

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paravis/internal/minic"
	"paravis/internal/staticcheck"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// sarifSrc trips three rules at three severities so the golden pins the
// whole level mapping: array-oob (error), dead-branch (warning) and
// stall-lint (note).
const sarifSrc = `
void f(float* C, int n) {
#pragma omp target parallel map(tofrom: C[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    float buf[8];
    for (int i = 0; i < 8; ++i) {
      buf[i + 8] = 1.0f;
      C[id] = C[id] + 1.0f;
    }
    if (id < 0) {
      C[id] = 0.0f;
    }
    C[id] = C[id] + buf[0];
  }
}
`

// TestSarifGolden pins the SARIF 2.1.0 log byte-for-byte: schema URI,
// rule catalogue, level mapping and clamped regions all live in the
// golden file.
func TestSarifGolden(t *testing.T) {
	ds, _ := staticcheck.CheckSource("kernel.mc", sarifSrc, minic.Options{})
	unit := NewVetUnit("kernel.mc", ds, nil, nil)
	var b bytes.Buffer
	if err := Encode(&b, NewSarif([]VetUnit{unit})); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "vet.sarif.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("SARIF log differs from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSarifShape checks the structural invariants independent of the
// golden: every result's ruleIndex resolves to its ruleId, levels come
// from the severity ladder, and regions are 1-based.
func TestSarifShape(t *testing.T) {
	ds, _ := staticcheck.CheckSource("kernel.mc", sarifSrc, minic.Options{})
	if len(ds) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	s := NewSarif([]VetUnit{NewVetUnit("kernel.mc", ds, nil, nil)})
	if s.Version != "2.1.0" || !strings.Contains(s.Schema, "sarif-2.1.0") {
		t.Fatalf("bad log header: version=%q schema=%q", s.Version, s.Schema)
	}
	if len(s.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(s.Runs))
	}
	run := s.Runs[0]
	if run.Tool.Driver.Name != "nymblevet" {
		t.Errorf("driver = %q, want nymblevet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) < len(staticcheck.AllRules()) {
		t.Errorf("rule catalogue has %d entries, want at least %d",
			len(run.Tool.Driver.Rules), len(staticcheck.AllRules()))
	}
	if len(run.Results) != len(ds) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(ds))
	}
	levels := map[string]bool{"error": true, "warning": true, "note": true}
	for i, r := range run.Results {
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("result %d: ruleIndex %d out of range", i, r.RuleIndex)
		}
		if id := run.Tool.Driver.Rules[r.RuleIndex].ID; id != r.RuleID {
			t.Errorf("result %d: ruleIndex resolves to %q, ruleId is %q", i, id, r.RuleID)
		}
		if !levels[r.Level] {
			t.Errorf("result %d: bad level %q", i, r.Level)
		}
		reg := r.Locations[0].PhysicalLocation.Region
		if reg.StartLine < 1 || reg.StartColumn < 1 {
			t.Errorf("result %d: region not 1-based: %+v", i, reg)
		}
		if r.Locations[0].PhysicalLocation.ArtifactLocation.URI != "kernel.mc" {
			t.Errorf("result %d: artifact URI %q", i, r.Locations[0].PhysicalLocation.ArtifactLocation.URI)
		}
	}
	for _, sev := range []string{"error", "warning", "note"} {
		found := false
		for _, r := range run.Results {
			if r.Level == sev {
				found = true
			}
		}
		if !found {
			t.Errorf("fixture produced no %s-level result", sev)
		}
	}
}
