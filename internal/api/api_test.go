package api

import (
	"bytes"
	"strings"
	"testing"

	"paravis/internal/minic"
	"paravis/internal/workloads"
)

// TestDependSummaryStableAndVersioned: the depend and absint sections
// must be present for the seed kernels, byte-stable across encodings,
// and carry the three-way legality verdicts.
func TestDependSummaryStableAndVersioned(t *testing.T) {
	if Version != 4 {
		t.Fatalf("schema version = %d, want 4 (optimize family added in v4)", Version)
	}
	w := workloads.Units()[0]
	encode := func() string {
		dep := ParseDependSummary(w.Source, minic.Options{Defines: w.Defines})
		if len(dep) == 0 {
			t.Fatalf("no depend summary for %s", w.Name)
		}
		abs := ParseAbsintSummary(w.Source, minic.Options{Defines: w.Defines})
		if abs == nil {
			t.Fatalf("no absint summary for %s", w.Name)
		}
		unit := NewVetUnit(w.Name, nil, dep, abs)
		var b bytes.Buffer
		if err := Encode(&b, VetReport{SchemaVersion: Version, Units: []VetUnit{unit}}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := encode()
	if second := encode(); second != first {
		t.Fatal("depend summary not byte-stable across encodings")
	}
	for _, field := range []string{`"depend"`, `"unroll"`, `"tile"`, `"double_buffer"`, `"loop"`,
		`"absint"`, `"converged"`, `"trips"`, `"verdict"`} {
		if !strings.Contains(first, field) {
			t.Errorf("report lacks %s:\n%s", field, first)
		}
	}
}

// TestDependSummaryAbsentOnBadSource: units that do not parse or have no
// target region omit the section instead of failing.
func TestDependSummaryAbsentOnBadSource(t *testing.T) {
	if dep := ParseDependSummary("void f( {", minic.Options{}); dep != nil {
		t.Errorf("parse error should yield nil, got %+v", dep)
	}
	if dep := ParseDependSummary("void f(int n) { }", minic.Options{}); dep != nil {
		t.Errorf("no target region should yield nil, got %+v", dep)
	}
	if abs := ParseAbsintSummary("void f( {", minic.Options{}); abs != nil {
		t.Errorf("parse error should yield nil absint summary, got %+v", abs)
	}
	if abs := ParseAbsintSummary("void f(int n) { }", minic.Options{}); abs != nil {
		t.Errorf("no target region should yield nil absint summary, got %+v", abs)
	}
}

// keyRunRequest carries every field RunKey covers, so the pin below
// notices a change in any one encoding.
func keyRunRequest() *RunRequest {
	return &RunRequest{
		Source:      "void f() {}",
		Defines:     map[string]string{"N": "4", "M": "2"},
		VectorLanes: 8,
		Ints:        map[string]int64{"n": 64, "dim": -3},
		Floats:      map[string]float64{"a": 2.5, "b": -0.125},
		Buffers:     map[string][]float32{"Y": {1, 2}, "X": {0.5, -1, 3}},
		NoProfile:   true,
		MaxCycles:   123456,
		TimeoutMs:   99, // transport: must not move the digest
		Wait:        true,
	}
}

// TestRunKeyIsStable pins the run digest: the artifact store names a
// run's directory by it, so a change would orphan every stored run.
func TestRunKeyIsStable(t *testing.T) {
	const want = "348197964fe1308171257e439862770e6f35485be91dcb59e26cc87f5b78a708"
	if got := RunKey(keyRunRequest()); got != want {
		t.Errorf("RunKey = %s, want %s", got, want)
	}
	bare := &RunRequest{Source: "void f() {}"}
	const wantBare = "2ea0f4c6d406eb8b841f02297e0bfb102d8db617f90badecec3eca9bb7db2fb9"
	if got := RunKey(bare); got != wantBare {
		t.Errorf("RunKey(bare) = %s, want %s", got, wantBare)
	}
}

// TestRunKeyAllocatesNothingPerValue: the digest stages values in a fixed
// buffer, so hashing 8,184 more buffer values costs no allocation per
// value. (The race detector adds a few allocations of its own, hence the
// slack.)
func TestRunKeyAllocatesNothingPerValue(t *testing.T) {
	allocs := func(n int) float64 {
		r := keyRunRequest()
		r.Buffers = map[string][]float32{"X": make([]float32, n), "Y": make([]float32, n)}
		return testing.AllocsPerRun(10, func() { RunKey(r) })
	}
	if short, long := allocs(4), allocs(4096); long > short+64 {
		t.Errorf("RunKey allocates %.0f times with 2×4 floats, %.0f with 2×4096", short, long)
	}
}
