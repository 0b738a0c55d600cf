package transform

import (
	"maps"
	"reflect"
	"testing"

	"paravis/internal/minic"
	"paravis/internal/workloads"
)

// applyParseFirst is Base.Apply without the shared-tree decision: every
// step parses a private tree and runs its pass there, refusing or
// rewriting. It is the oracle Base.Apply's refusals are compared with.
func applyParseFirst(b *Base, step Step) (string, error) {
	prog, fn, err := b.target()
	if err != nil {
		return "", err
	}
	ctx := b.ctx
	ctx.fn, ctx.used, ctx.readOnly = fn, maps.Clone(b.ctx.used), false
	if err := ctx.run(step); err != nil {
		return "", err
	}
	out, _, err := canonical(prog, ctx.lanes)
	return out, err
}

// everyStep crosses every loop of the base with every pass and a grid
// that reaches each parameter refusal, plus a missing loop and an
// unknown pass: a superset of what the search enumerates.
func everyStep(b *Base) []Step {
	grid := map[string][]map[string]int64{
		PassRedistribute: {nil},
		PassVectorize:    {nil},
		PassDoubleBuffer: {nil},
		PassUnroll:       {{"factor": 1}, {"factor": 2}, {"factor": 4}},
		PassTile:         {{"size": 1}, {"size": 4}, {"size": 8}, {"size": 16}},
		PassBlockBRAM: {{"bs": 1, "vec": 0}, {"bs": 3, "vec": 0}, {"bs": 4, "vec": 1}, {"bs": 4, "vec": 0},
			{"bs": 6, "vec": 1}, {"bs": 8, "vec": 1}, {"bs": 8, "vec": 0}, {"bs": 16, "vec": 1}},
	}
	steps := []Step{{Pass: PassUnroll, Loop: "for@0:0"}, {Pass: "fuse", Loop: "for@0:0"}}
	for _, st := range forsUnder(b.ctx.fn.Body) {
		for _, pass := range []string{PassRedistribute, PassVectorize, PassUnroll, PassTile, PassBlockBRAM, PassDoubleBuffer} {
			for _, params := range grid[pass] {
				steps = append(steps, Step{Pass: pass, Loop: minic.LoopName(st), Params: params})
			}
		}
	}
	return steps
}

// TestRefusalsDecidedOnSharedTree: on every seed unit, as written and in
// canonical form (the canonical GEMM versions are the ladder's rungs),
// every step of every loop leaves the shared tree as it was, refuses
// with the parse-first oracle's exact error or emits its exact text, and
// an accepted step's tree is the parse of its text, positions included.
func TestRefusalsDecidedOnSharedTree(t *testing.T) {
	accepted, refused := 0, 0
	for _, u := range workloads.Units() {
		canon, lanes, err := Canonical(u.Source, Options{Defines: u.Defines})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name, src string
			opts      Options
		}{
			{u.Name, u.Source, Options{Defines: u.Defines, Params: u.Params}},
			{u.Name + "/canonical", canon, Options{VectorLanes: lanes, Params: u.Params}},
		} {
			t.Run(c.name, func(t *testing.T) {
				b, err := Analyze(c.src, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				shared := &minic.Program{Funcs: []*minic.FuncDecl{b.ctx.fn}}
				before := minic.Print(shared)
				for _, step := range everyStep(b) {
					got, tree, err := b.Apply(step)
					want, wantErr := applyParseFirst(b, step)
					if got != want || errText(err) != errText(wantErr) {
						t.Errorf("%s on %s %v: Apply = (%d bytes, %q), parse-first = (%d bytes, %q)",
							step.Pass, step.Loop, step.Params, len(got), errText(err), len(want), errText(wantErr))
					}
					if err != nil {
						refused++
						continue
					}
					accepted++
					re, err := minic.Parse(got, minic.Options{VectorLanes: b.ctx.lanes})
					if err != nil {
						t.Fatalf("%s on %s %v: emitted text does not parse: %v", step.Pass, step.Loop, step.Params, err)
					}
					if !reflect.DeepEqual(tree, re) {
						t.Errorf("%s on %s %v: returned tree is not the parse of the emitted text", step.Pass, step.Loop, step.Params)
					}
				}
				if after := minic.Print(shared); after != before {
					t.Errorf("the shared tree changed under Apply:\n--- before ---\n%s\n--- after ---\n%s", before, after)
				}
			})
		}
	}
	t.Logf("%d steps accepted, %d refused", accepted, refused)
	if accepted == 0 || refused == 0 {
		t.Errorf("%d steps accepted, %d refused: the comparison needs both", accepted, refused)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
