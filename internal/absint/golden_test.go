package absint_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"paravis/internal/absint"
	"paravis/internal/autotune"
	"paravis/internal/minic"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden analysis results")

// unit is one source of the exactness corpus: parsed with popts and
// analysed symbolically and, when env is set, with those parameters.
type unit struct {
	name  string
	src   string
	popts minic.Options
	env   map[string]int64
}

// TestGoldenResults pins every fact absint publishes — per-loop
// reachability and trip brackets, per-access verdicts and index ranges
// (a mapped window shows as the DRAM access's DimSize), divisor and
// constant-condition facts, OK — over the seed workloads, the example
// kernels, the staticcheck fixtures and every distinct source the DIM=16
// GEMM search explores. The goldens were written by the round-robin
// solver the dirty-block scheduler replaced and must never be regenerated
// to make a solver change pass: a diff here means the fixpoint moved.
func TestGoldenResults(t *testing.T) {
	groups := []struct {
		name  string
		units func(t *testing.T) []unit
	}{
		{"seeds", seedUnits},
		{"examples", func(t *testing.T) []unit { return fileUnits(t, "../../examples/*/*.mc") }},
		{"fixtures", func(t *testing.T) []unit { return fileUnits(t, "../staticcheck/testdata/*.mc") }},
		{"search-dim16", searchUnits},
		// The solver-scheduling cases FuzzAbsint also seeds with: a loop
		// head left clean for several passes before its widening pass, and
		// an edge that is live while widened and dead once narrowed.
		{"solver", func(t *testing.T) []unit {
			us := fileUnits(t, "testdata/*.mc")
			for i := range us {
				us[i].env = map[string]int64{"n": 5}
			}
			return us
		}},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			var got bytes.Buffer
			for _, u := range g.units(t) {
				render(t, &got, u)
			}
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("analysis results differ from %s:\n%s", path, firstDiff(got.String(), string(want)))
			}
		})
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

func seedUnits(t *testing.T) []unit {
	var us []unit
	for _, u := range workloads.Units() {
		us = append(us, unit{name: u.Name, src: u.Source, popts: minic.Options{Defines: u.Defines}, env: u.Params})
	}
	return us
}

func fileUnits(t *testing.T, pattern string) []unit {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no sources match %s (%v)", pattern, err)
	}
	var us []unit
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		us = append(us, unit{name: filepath.Base(p), src: string(src)})
	}
	return us
}

// searchUnits runs the DIM=16 GEMM search and rebuilds the source of
// every candidate by re-applying its last step to its round's base.
func searchUnits(t *testing.T) []unit {
	t.Helper()
	env := map[string]int64{"DIM": 16}
	defines := workloads.GEMMDefines(workloads.GEMMNaive)
	res, err := autotune.Optimize(context.Background(), "gemm-naive",
		workloads.GEMMSource(workloads.GEMMNaive),
		autotune.Options{Defines: defines, Params: env})
	if err != nil {
		t.Fatal(err)
	}
	base, lanes, err := transform.Canonical(workloads.GEMMSource(workloads.GEMMNaive), transform.Options{Defines: defines})
	if err != nil {
		t.Fatal(err)
	}
	topts := transform.Options{VectorLanes: lanes, Params: env}
	popts := minic.Options{VectorLanes: lanes}
	chain := func(steps []transform.Step) string { return fmt.Sprintf("%v", steps) }
	sources := map[string]string{chain(nil): base}
	seen := map[string]bool{base: true}
	us := []unit{{name: "baseline", src: base, popts: popts, env: env}}
	for _, c := range res.Candidates {
		n := len(c.Steps)
		from, ok := sources[chain(c.Steps[:n-1])]
		if !ok {
			t.Fatalf("%s: no source for its base", c.Name)
		}
		src, err := transform.Apply(from, c.Steps[n-1], topts)
		if err != nil {
			continue
		}
		sources[chain(c.Steps)] = src
		if !seen[src] {
			seen[src] = true
			us = append(us, unit{name: c.Name, src: src, popts: popts, env: env})
		}
	}
	if len(us) < 40 {
		t.Fatalf("search explored only %d distinct sources", len(us))
	}
	return us
}

func render(t *testing.T, w *bytes.Buffer, u unit) {
	t.Helper()
	fmt.Fprintf(w, "== %s sha256:%x\n", u.name, sha256.Sum256([]byte(u.src)))
	prog, err := minic.Parse(u.src, u.popts)
	if err != nil {
		t.Fatalf("%s: %v", u.name, err)
	}
	for _, fn := range prog.Funcs {
		absint.RenderResult(w, fn.Name+" symbolic", absint.Analyze(fn, absint.Options{}))
		if u.env != nil {
			absint.RenderResult(w, fn.Name+" "+envString(u.env), absint.Analyze(fn, absint.Options{Env: u.env}))
		}
	}
}

// TestSolverMatchesOracle runs the solver and the oracle (the solver
// before each visit's state work was fused, kept in oracle_test.go) over
// the golden corpus, benchmark/testdata and a kernel with side-effecting
// branch conditions: symbolically and under the launch env (every scalar
// parameter 5 where a unit has none), at the default widening delay and
// widening at once. Each run must agree on the pass count, every block's
// in state and reachability, every live out edge's state and the
// published facts.
func TestSolverMatchesOracle(t *testing.T) {
	us := seedUnits(t)
	for _, pattern := range []string{
		"../../examples/*/*.mc", "../../benchmark/testdata/*.mc", "../staticcheck/testdata/*.mc", "testdata/*.mc",
	} {
		us = append(us, fileUnits(t, pattern)...)
	}
	us = append(us, unit{name: "impure-cond", src: absint.ImpureCondSrc})
	us = append(us, searchUnits(t)...)
	runs := 0
	for _, u := range us {
		prog, err := minic.Parse(u.src, u.popts)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		for _, fn := range prog.Funcs {
			env := u.env
			if env == nil {
				env = map[string]int64{}
				for _, p := range fn.Params {
					if !p.Type.IsPointer() {
						env[p.Name] = 5
					}
				}
			}
			for _, opts := range []absint.Options{{}, {Env: env}, {WidenDelay: -1}, {Env: env, WidenDelay: -1}} {
				if err := absint.CompareWithOracle(fn, opts); err != nil {
					t.Errorf("%s (env %v, delay %d): %v", u.name, opts.Env, opts.WidenDelay, err)
				}
				runs++
			}
		}
	}
	t.Logf("%d runs over %d units", runs, len(us))
}

func envString(env map[string]int64) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", k, env[k])
	}
	return sb.String()
}
