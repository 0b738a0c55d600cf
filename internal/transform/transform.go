// Package transform is the source-to-source transformation engine over
// the MiniC AST: the mechanical half of the paper's §V-C optimization
// ladder. Each pass rewrites a parsed kernel — redistributing a reduction
// to kill a critical section, vectorizing narrow loads, unrolling,
// strip-mining, staging DRAM tiles in BRAM, or double-buffering those
// tiles — and emits canonical source (minic.Print) that re-parses, vets
// clean and simulates like any hand-written kernel.
//
// Every pass is legality-gated: it refuses to fire unless the
// internal/depend verdict for the transformation it performs is *proven*
// on the loops it touches. The verdicts come from the same
// range-refined dependence analysis the advisor uses (absint ranges +
// depend.AnalyzeRanges); tests can inject a doctored depend.Report
// through Options.Report to prove the gate holds.
//
// Base.Apply is the only mutation entry point: match → gate on the shared
// tree, then parse → rewrite → print → re-parse → print for an accepted
// step only. The double print canonicalizes the output (sema inserts
// coercion casts on the first re-parse), so applying a pass is idempotent
// byte-wise: transforming already-transformed source with identity
// parameters returns the input unchanged. Analyze does the per-source
// work (the legality report above all) once for any number of steps; the
// package-level Apply and Targets are Analyze followed by the method.
package transform

import (
	"errors"
	"fmt"
	"maps"

	"paravis/internal/absint"
	"paravis/internal/depend"
	"paravis/internal/minic"
)

// Pass names, used in Step.Pass and by the advisor's structured remedies.
const (
	// PassRedistribute rewrites a critical-section reduction so threads
	// own disjoint outputs (paper ladder v1 → v2).
	PassRedistribute = "redistribute"
	// PassVectorize widens a unit-stride reduction load to VECTOR
	// accesses with an unrolled lane loop (v2 → v3).
	PassVectorize = "vectorize"
	// PassUnroll sets or raises a loop's #pragma unroll factor.
	PassUnroll = "unroll"
	// PassTile strip-mines a counted loop into tile/intra-tile loops.
	PassTile = "tile"
	// PassBlockBRAM tiles a matmul-shaped nest and stages the tiles in
	// BRAM so compute reads on-chip memory (v2 → v4).
	PassBlockBRAM = "block-bram"
	// PassDoubleBuffer splits a tile loop's load and compute phases
	// across two BRAM buffer sets so prefetch overlaps compute (v4 → v5).
	PassDoubleBuffer = "double-buffer"
)

// Step is one transformation application: a pass, the loop it targets
// (by the canonical "for@line:col" name in the *current* source), and
// the pass's integer parameters.
type Step struct {
	Pass   string           `json:"pass"`
	Loop   string           `json:"loop,omitempty"`
	Params map[string]int64 `json:"params,omitempty"`
}

func (s Step) param(name string, def int64) int64 {
	if v, ok := s.Params[name]; ok {
		return v
	}
	return def
}

// Options configures parsing and legality analysis for a transformation.
type Options struct {
	// Defines and VectorLanes are forwarded to minic.Parse.
	Defines     map[string]string
	VectorLanes int
	// Params are the launch parameters (e.g. DIM=64); the passes fold
	// divisibility preconditions against them.
	Params map[string]int64
	// Report overrides the dependence/legality report. When nil the
	// engine derives it from the parsed source exactly as the advisor
	// does. Tests inject lying reports here to prove gating.
	Report *depend.Report
}

// ErrNotProven is wrapped by pass failures where the depend verdict for
// the transformation was not Proven on a touched loop.
var ErrNotProven = errors.New("legality not proven")

// ErrNotApplicable is wrapped by pass failures where the loop shape or
// the requested parameters do not fit the pass.
var ErrNotApplicable = errors.New("pass not applicable")

// NotProvenError reports a refused transformation with the loop and the
// dependence engine's reason.
type NotProvenError struct {
	Pass    string
	Loop    string
	Verdict depend.Tri
	Why     string
}

func (e *NotProvenError) Error() string {
	msg := fmt.Sprintf("transform: %s on %s refused: legality %s", e.Pass, e.Loop, e.Verdict)
	if e.Why != "" {
		msg += " (" + e.Why + ")"
	}
	return msg
}

func (e *NotProvenError) Unwrap() error { return ErrNotProven }

func notApplicable(pass, loop, format string, args ...any) error {
	return fmt.Errorf("transform: %s on %s: %s: %w", pass, loop, fmt.Sprintf(format, args...), ErrNotApplicable)
}

// gate returns nil only when the given legality verdict is Proven.
func gate(pass string, ld *depend.LoopDeps, verdict depend.Tri, why string) error {
	if verdict == depend.Proven {
		return nil
	}
	return &NotProvenError{Pass: pass, Loop: ld.Name, Verdict: verdict, Why: why}
}

// passCtx carries everything a pass needs: the parsed function, the
// legality report, the lane count and the fold environment. Every pass
// decides all of its refusals before its first write; on a read-only
// context it returns right after the last of them, so a nil error there
// means the step would be accepted and nothing was touched.
type passCtx struct {
	fn       *minic.FuncDecl
	rep      *depend.Report
	lanes    int
	env      map[string]int64
	used     map[string]bool
	readOnly bool
}

func (c *passCtx) loopDeps(pass string, st *minic.ForStmt) (*depend.LoopDeps, error) {
	ld := c.rep.Loop(minic.LoopName(st))
	if ld == nil {
		return nil, notApplicable(pass, minic.LoopName(st), "no dependence record for loop")
	}
	return ld, nil
}

// Base is one source analysed for any number of rewrites of it: the
// parse, the target lookup, the legality report and the name-conflict
// set are computed once by Analyze instead of once per step. A legality
// report is valid only for the exact text it was derived from; holding
// it beside that text is what lets a search reuse it safely. A Base is
// read-only once built, so Apply and Targets may run on several
// goroutines.
type Base struct {
	src   string
	parse minic.Options
	// ctx is the analysed tree with its report, read-only. Targets matches
	// against it and Apply decides refusals on it; an accepted step borrows
	// the report, lanes, env and used names for its private tree.
	ctx passCtx
}

// Analyze parses src and derives everything a pass needs to know about
// it (opts.Report, when set, stands in for the derived legality report).
func Analyze(src string, opts Options) (*Base, error) {
	b := &Base{src: src, parse: minic.Options{Defines: opts.Defines, VectorLanes: opts.VectorLanes}}
	_, fn, err := b.target()
	if err != nil {
		return nil, err
	}
	rep := opts.Report
	if rep == nil {
		rep = LegalityReport(fn, opts.Params)
	}
	b.ctx = passCtx{fn: fn, rep: rep, lanes: opts.lanes(), env: foldEnv(fn, opts.Params), used: usedNames(fn), readOnly: true}
	return b, nil
}

// target parses the base text and finds its kernel function.
func (b *Base) target() (*minic.Program, *minic.FuncDecl, error) {
	prog, err := minic.Parse(b.src, b.parse)
	if err != nil {
		return nil, nil, fmt.Errorf("transform: %w", err)
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("transform: %w", err)
	}
	return prog, fn, nil
}

// Apply applies one transformation step to the base and returns the
// canonical printed source together with its parse: the tree is exactly
// what minic.Parse returns for the text at the base's lane count, and it
// is the caller's own. The emitted text is guaranteed to re-parse;
// building, vetting and simulating it is the caller's business.
func (b *Base) Apply(step Step) (string, *minic.Program, error) {
	// Every refusal is decided on the shared tree, which the read-only
	// pass leaves untouched.
	if err := b.ctx.run(step); err != nil {
		return "", nil, err
	}
	// Passes rewrite the tree in place, so an accepted step gets a tree of
	// its own; the report and the used names are keyed by loop and
	// identifier names, which a re-parse of the same text reproduces.
	prog, fn, err := b.target()
	if err != nil {
		return "", nil, err
	}
	ctx := b.ctx
	ctx.fn, ctx.used, ctx.readOnly = fn, maps.Clone(b.ctx.used), false
	if err := ctx.run(step); err != nil {
		return "", nil, err
	}
	return canonical(prog, ctx.lanes)
}

// run finds the step's loop in c's tree and runs its pass.
func (c *passCtx) run(step Step) error {
	st := findLoop(c.fn, step.Loop)
	if st == nil {
		return notApplicable(step.Pass, step.Loop, "no such loop")
	}
	switch step.Pass {
	case PassRedistribute:
		return redistribute(c, st)
	case PassVectorize:
		return vectorize(c, st)
	case PassUnroll:
		return unroll(c, st, step.param("factor", int64(c.lanes)))
	case PassTile:
		return tile(c, st, step.param("size", 8))
	case PassBlockBRAM:
		return blockBRAM(c, st, step.param("bs", 8), step.param("vec", 1) != 0)
	case PassDoubleBuffer:
		return doubleBuffer(c, st)
	}
	return fmt.Errorf("transform: unknown pass %q: %w", step.Pass, ErrNotApplicable)
}

// Apply is the one-shot form of Analyze followed by Base.Apply.
func Apply(src string, step Step, opts Options) (string, error) {
	b, err := Analyze(src, opts)
	if err != nil {
		return "", err
	}
	out, _, err := b.Apply(step)
	return out, err
}

// lanes resolves the VECTOR lane count the way minic.Parse does for
// option-supplied defines: explicit count, then VECTOR_LEN, then 4.
func (o Options) lanes() int {
	lanes := o.VectorLanes
	if lanes == 0 {
		if v, ok := o.Defines["VECTOR_LEN"]; ok {
			fmt.Sscanf(v, "%d", &lanes)
		}
	}
	if lanes <= 0 {
		lanes = 4
	}
	return lanes
}

// Canonical returns src in the canonical printed form every pass emits
// (defines folded, coercion casts explicit), so loop names stay stable
// across a chain of Apply calls, and the lane count that later parses of
// the define-free text must be given. A source that does not compile
// yields the front end's error unwrapped.
func Canonical(src string, opts Options) (string, int, error) {
	prog, err := minic.Parse(src, minic.Options{Defines: opts.Defines, VectorLanes: opts.VectorLanes})
	if err != nil {
		return "", 0, err
	}
	lanes := opts.lanes()
	out, _, err := canonical(prog, lanes)
	return out, lanes, err
}

// canonical prints the mutated tree, re-parses it (running sema, which
// inserts coercion casts) and prints again, so Apply's output is always
// a printer fixpoint. It also returns the parse of that output: the
// re-parse itself when the first print was already the fixpoint, else
// one more parse.
func canonical(prog *minic.Program, lanes int) (string, *minic.Program, error) {
	popts := minic.Options{VectorLanes: lanes}
	out := minic.Print(prog)
	re, err := minic.Parse(out, popts)
	if err == nil {
		if text := minic.Print(re); text != out {
			out = text
			re, err = minic.Parse(out, popts)
		}
	}
	if err != nil {
		return "", nil, fmt.Errorf("transform: emitted source does not re-parse: %w\n%s", err, out)
	}
	return out, re, nil
}

// LegalityReport derives the range-refined dependence report the passes
// gate on: abstract-interpretation index ranges feeding the dependence
// solver, exactly as the advisor and the vet report's depend section.
func LegalityReport(fn *minic.FuncDecl, params map[string]int64) *depend.Report {
	// IndexRange answers "unknown" for everything when the interpreter
	// did not converge, so no OK check is needed here.
	return depend.AnalyzeRanges(fn, params, absint.Analyze(fn, absint.Options{Env: params}).IndexRange)
}

// Targets enumerates the transformation steps whose structural matchers
// fit the base, in deterministic order (loops in source order, passes in
// ladder order). Parameters are not filled in: the search driver crosses
// each target with its parameter grid and lets Apply check legality and
// divisibility.
func (b *Base) Targets() []Step {
	ctx := &b.ctx
	var out []Step
	for _, st := range forsUnder(ctx.fn.Body) {
		name := minic.LoopName(st)
		if matchRedistribute(ctx, st) == nil {
			out = append(out, Step{Pass: PassRedistribute, Loop: name})
		}
		if _, err := matchBlockBRAM(ctx, st); err == nil {
			out = append(out, Step{Pass: PassBlockBRAM, Loop: name})
		}
		if _, err := matchDoubleBuffer(ctx, st); err == nil {
			out = append(out, Step{Pass: PassDoubleBuffer, Loop: name})
		}
		if _, err := matchVectorize(ctx, st); err == nil {
			out = append(out, Step{Pass: PassVectorize, Loop: name})
		}
		if st.Unroll == 0 && st.Cond != nil && len(st.Post) > 0 && len(forsUnder(st.Body)) == 0 {
			out = append(out, Step{Pass: PassUnroll, Loop: name})
		}
		if matchTile(ctx, st) == nil {
			out = append(out, Step{Pass: PassTile, Loop: name})
		}
	}
	return out
}

// Targets is the one-shot form of Analyze followed by Base.Targets.
func Targets(src string, opts Options) ([]Step, error) {
	b, err := Analyze(src, opts)
	if err != nil {
		return nil, err
	}
	return b.Targets(), nil
}
