// Package autotune is the search driver over internal/transform's
// transformation×parameter space: the half of the paper's §V-C story
// that picks which rewrite to apply next. Candidates are generated from
// the structural matchers (transform.Targets) crossed with parameter
// grids, filtered by the legality gates, and ranked by a two-tier cost
// model — perfbound's sound cycle brackets first (cheap, static), then
// short cycle-exact simulator runs to confirm the survivors. The search
// is greedy over rounds: the best simulator-confirmed candidate of a
// round becomes the base of the next, until no candidate improves on it
// or the simulator budget is spent. The baseline is simulated beside
// round 1's builds, so its cycles are known before any candidate is
// pruned or simulated.
//
// A round's candidates are all rewrites of one text, so the round
// analyses it once (transform.Analyze: parse, legality report, names in
// use) and every step applies to that transform.Base. The static tier
// then runs on the worker pool the simulations use: the rewrites in
// parallel by enumeration index, a serial pass in that order that
// classifies refusals and drops rewrites whose source was already
// explored, and build + vet + bracket of the survivors in parallel by
// index again.
//
// Determinism: candidate enumeration follows source order and sorted
// parameter grids, every parallel step stores its result by candidate
// index and the de-duplication between them is serial, and every tie
// breaks on (cycles, name). The simulator budget bounds the number of
// confirmation runs, so a search with the same source, options and
// budget always returns the same report, whatever Options.Workers is.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"paravis/internal/absint"
	"paravis/internal/core"
	"paravis/internal/ir"
	"paravis/internal/minic"
	"paravis/internal/parallel"
	"paravis/internal/perfbound"
	"paravis/internal/sim"
	"paravis/internal/staticcheck"
	"paravis/internal/transform"
)

// Candidate verdicts, in the order of the pipeline that assigns them.
const (
	VerdictNotProven     = "not-proven"     // a legality gate refused the pass
	VerdictNotApplicable = "not-applicable" // shape or divisibility mismatch
	VerdictCompileError  = "compile-error"  // emitted source failed to build
	VerdictVetDirty      = "vet-dirty"      // emitted source has vet errors
	VerdictPruned        = "pruned"         // bracket lower bound ≥ current best
	VerdictBudget        = "budget"         // simulator budget exhausted
	VerdictSimError      = "sim-error"      // simulation failed
	VerdictWrongResult   = "wrong-result"   // output mismatch vs. baseline
	VerdictWorse         = "worse"          // simulated, no improvement
	VerdictImproved      = "improved"       // simulated faster than the base
	VerdictWinner        = "winner"         // improved and won its round
)

// Budget caps the expensive tier of the search. A zero Candidates
// selects the default of 32 simulator runs.
type Budget struct {
	// Candidates is the total number of simulator confirmations the
	// whole search may spend.
	Candidates int `json:"candidates,omitempty"`
}

// The parameter grid crossed with each structural target.
var (
	unrollFactors = []int64{2, 4}
	tileSizes     = []int64{4, 8, 16}
)

// Options configures a search.
type Options struct {
	Defines map[string]string
	// Params are the integer launch arguments (e.g. DIM=64): the passes
	// fold divisibility checks against them and the simulator receives
	// them as scalar arguments.
	Params map[string]int64
	// Floats are float launch arguments (e.g. pi's step).
	Floats map[string]float64
	// Workers bounds the goroutines of both tiers: candidate rewriting
	// and static ranking, then simulation (<=0: the parallel package's
	// default). The report does not depend on it.
	Workers   int
	Budget    Budget
	MaxRounds int
}

func (o *Options) budgetCandidates() int {
	if o.Budget.Candidates > 0 {
		return o.Budget.Candidates
	}
	return 32
}

func (o *Options) maxRounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 8
}

// Candidate is one explored point of the search space.
type Candidate struct {
	// Name is "r<round>:<pass>(<loop>){<params>}", unique per search.
	Name  string           `json:"name"`
	Steps []transform.Step `json:"steps"`
	// PredLower/PredUpper bracket the candidate's cycles (perfbound).
	PredLower  int64 `json:"pred_lower,omitempty"`
	PredUpper  int64 `json:"pred_upper,omitempty"`
	UpperKnown bool  `json:"upper_known,omitempty"`
	// Cycles is the simulator measurement, valid when Simulated.
	Cycles    int64  `json:"cycles,omitempty"`
	Simulated bool   `json:"simulated"`
	Verdict   string `json:"verdict"`
	Note      string `json:"note,omitempty"`
}

// Result is a completed search.
type Result struct {
	Kernel         string      `json:"kernel"`
	BaselineCycles int64       `json:"baseline_cycles"`
	Candidates     []Candidate `json:"candidates"`
	// Winner names the final best candidate ("" when no transformation
	// beat the baseline).
	Winner           string           `json:"winner,omitempty"`
	WinnerCycles     int64            `json:"winner_cycles"`
	WinnerSteps      []transform.Step `json:"winner_steps,omitempty"`
	WinnerSource     string           `json:"winner_source,omitempty"`
	WinnerLower      int64            `json:"winner_lower,omitempty"`
	WinnerUpper      int64            `json:"winner_upper,omitempty"`
	WinnerUpperKnown bool             `json:"winner_upper_known,omitempty"`
	SimsRun          int              `json:"sims_run"`
	Rounds           int              `json:"rounds"`
}

// stepName renders a step with deterministically ordered parameters.
func stepName(round int, s transform.Step) string {
	name := fmt.Sprintf("r%d:%s(%s)", round, s.Pass, s.Loop)
	if len(s.Params) > 0 {
		keys := make([]string, 0, len(s.Params))
		for k := range s.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		name += "{"
		for i, k := range keys {
			if i > 0 {
				name += ","
			}
			name += fmt.Sprintf("%s=%d", k, s.Params[k])
		}
		name += "}"
	}
	return name
}

// expand crosses a structural target with its parameter grid.
func expand(s transform.Step) []transform.Step {
	withParams := func(ps ...map[string]int64) []transform.Step {
		out := make([]transform.Step, 0, len(ps))
		for _, p := range ps {
			out = append(out, transform.Step{Pass: s.Pass, Loop: s.Loop, Params: p})
		}
		return out
	}
	switch s.Pass {
	case transform.PassUnroll:
		var ps []map[string]int64
		for _, f := range unrollFactors {
			ps = append(ps, map[string]int64{"factor": f})
		}
		return withParams(ps...)
	case transform.PassTile:
		var ps []map[string]int64
		for _, t := range tileSizes {
			ps = append(ps, map[string]int64{"size": t})
		}
		return withParams(ps...)
	case transform.PassBlockBRAM:
		var ps []map[string]int64
		for _, t := range tileSizes {
			ps = append(ps, map[string]int64{"bs": t, "vec": 1})
			ps = append(ps, map[string]int64{"bs": t, "vec": 0})
		}
		return withParams(ps...)
	default: // redistribute, vectorize, double-buffer take no parameters
		return []transform.Step{s}
	}
}

// vetError returns the first error-severity diagnostic of a program
// core.BuildAST just returned, or nil. The build has already run the IR
// and schedule verifiers (a failure there is a compile error), so the AST
// rules that can emit errors are all that is left to reject it.
func vetError(name string, p *core.Program) *staticcheck.Diagnostic {
	if ds := staticcheck.CheckErrors(name, p.AST); len(ds) > 0 {
		return &ds[0]
	}
	return nil
}

// bracket runs the static first-tier cost model: perfbound with absint
// trip hints, over the machine the search simulates.
func bracket(p *core.Program, params map[string]int64, simCfg sim.Config) perfbound.CycleBounds {
	cfg := perfbound.Config{Config: simCfg}
	if ai := absint.Analyze(p.Fn, absint.Options{Env: params}); ai.OK {
		cfg.TripHints = ai.TripHints()
	}
	return perfbound.Analyze(p.Kernel, p.Sched, params, cfg).Cycles
}

// reference holds the baseline's observed outputs for the equivalence
// check every candidate must pass.
type reference struct {
	buffers    map[string][]uint32
	floatBufs  map[string]bool
	scalars    map[string]float64
	scalarsInt map[string]int64
}

// runOnce simulates a program on deterministically filled inputs and
// returns its cycles plus observed outputs.
func runOnce(ctx context.Context, p *core.Program, opts *Options, cfg sim.Config) (int64, *reference, error) {
	args, err := p.SizedArgs(opts.Params, opts.Floats)
	if err != nil {
		return 0, nil, err
	}
	fillInputs(p, args)
	out, err := p.Run(ctx, args, cfg)
	if err != nil {
		return 0, nil, err
	}
	ref := &reference{
		buffers:    map[string][]uint32{},
		floatBufs:  map[string]bool{},
		scalars:    out.Result.ScalarsOut,
		scalarsInt: out.Result.ScalarsOutInt,
	}
	for _, m := range p.Kernel.Maps {
		if m.Scalar || m.Dir == ir.MapTo {
			continue
		}
		buf := args.Buffers[m.Name]
		if buf == nil {
			continue
		}
		ref.buffers[m.Name] = append([]uint32(nil), buf.Words...)
		ref.floatBufs[m.Name] = isFloatParam(p.Fn, m.Name)
	}
	return out.Result.Cycles, ref, nil
}

func isFloatParam(fn *minic.FuncDecl, name string) bool {
	for _, p := range fn.Params {
		if p.Name == name && p.Type.IsPointer() && p.Type.Elem != nil {
			return p.Type.Elem.Basic == minic.Float
		}
	}
	return false
}

// fillInputs writes a deterministic, name-seeded pattern into every
// to/tofrom buffer so transformed kernels are checked against real data
// (all-zero inputs would hide most indexing bugs).
func fillInputs(p *core.Program, args sim.Args) {
	for _, m := range p.Kernel.Maps {
		if m.Scalar || m.Dir == ir.MapFrom {
			continue
		}
		buf := args.Buffers[m.Name]
		if buf == nil {
			continue
		}
		seed := uint32(0)
		for _, c := range m.Name {
			seed = seed*131 + uint32(c)
		}
		if isFloatParam(p.Fn, m.Name) {
			fs := buf.Floats()
			for i := range fs {
				fs[i] = float32((uint32(i)*2654435761+seed)%1021) / 1021.0
			}
			copy(buf.Words, sim.NewFloatBuffer(fs).Words)
		} else {
			is := buf.Ints()
			for i := range is {
				is[i] = int32((uint32(i)*2654435761 + seed) % 97)
			}
			copy(buf.Words, sim.NewIntBuffer(is).Words)
		}
	}
}

// equivalent compares a candidate's outputs with the baseline's. Float
// data gets an absolute+relative tolerance: the passes reassociate
// reductions, which legitimately perturbs the low bits.
func equivalent(ref, got *reference) (bool, string) {
	for name, want := range ref.buffers {
		g, ok := got.buffers[name]
		if !ok || len(g) != len(want) {
			return false, fmt.Sprintf("output %s missing or resized", name)
		}
		if ref.floatBufs[name] {
			wf, gf := wordsFloats(want), wordsFloats(g)
			for i := range wf {
				d := float64(gf[i]) - float64(wf[i])
				tol := 0.05 + 1e-3*abs(float64(wf[i]))
				if d < -tol || d > tol {
					return false, fmt.Sprintf("%s[%d] = %g, want %g", name, i, gf[i], wf[i])
				}
			}
		} else {
			for i := range want {
				if g[i] != want[i] {
					return false, fmt.Sprintf("%s[%d] differs", name, i)
				}
			}
		}
	}
	for name, want := range ref.scalars {
		g, ok := got.scalars[name]
		if !ok {
			return false, fmt.Sprintf("scalar %s missing", name)
		}
		d := g - want
		tol := 0.05 + 1e-3*abs(want)
		if d < -tol || d > tol {
			return false, fmt.Sprintf("scalar %s = %g, want %g", name, g, want)
		}
	}
	for name, want := range ref.scalarsInt {
		if g, ok := got.scalarsInt[name]; !ok || g != want {
			return false, fmt.Sprintf("scalar %s = %d, want %d", name, g, want)
		}
	}
	return true, ""
}

func wordsFloats(ws []uint32) []float32 { return (&sim.Buffer{Words: ws}).Floats() }

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Optimize searches the transformation space of one kernel and returns
// the full exploration report. The returned error covers baseline
// failures and a context that ended before the search did (a search cut
// short returns the context's error, never a partial report);
// per-candidate failures are verdicts in the report.
func Optimize(ctx context.Context, kernel, src string, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Candidates are confirmed on the default board with the profiling
	// unit off, so measurement does not perturb the ranked quantity.
	simCfg := sim.DefaultConfig()
	simCfg.Profile.Enabled = false
	topts := transform.Options{Defines: opts.Defines, Params: opts.Params}

	// The search state is always in canonical printed form so loop names
	// are stable across rounds; the defines are folded away by it, and
	// later parses only need the lane count.
	baseSrc, lanes, err := transform.Canonical(src, topts)
	if err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}
	topts.Defines = nil
	topts.VectorLanes = lanes
	canonOpts := core.BuildOptions{VectorLanes: lanes}

	baseProg, err := core.Build(ctx, baseSrc, canonOpts)
	if err != nil {
		return nil, fmt.Errorf("autotune: baseline build: %w", err)
	}
	// The baseline is simulated in round 1's cheap tier, beside the
	// candidates' builds; its cycles and outputs are known from there on.
	var ref *reference

	res := &Result{Kernel: kernel}
	best := struct {
		src    string
		cycles int64
		steps  []transform.Step
		name   string
		bounds perfbound.CycleBounds
	}{src: baseSrc}

	seen := map[string]bool{baseSrc: true}
	budget := opts.budgetCandidates()

	workers := parallel.Resolve(opts.Workers)
	canceled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("autotune: %w", err)
		}
		return nil
	}

	for round := 1; round <= opts.maxRounds(); round++ {
		// A round that can simulate nothing can elect no winner.
		if res.SimsRun >= budget {
			break
		}
		if err := canceled(); err != nil {
			return nil, err
		}
		res.Rounds = round
		// Every candidate of a round rewrites the same text: analyse it once.
		base, err := transform.Analyze(best.src, topts)
		if err != nil {
			return nil, fmt.Errorf("autotune: round %d: %w", round, err)
		}
		var steps []transform.Step
		for _, target := range base.Targets() {
			steps = append(steps, expand(target)...)
		}

		// Cheap tier: apply + build + vet + bracket every candidate. The
		// rewrites and the per-candidate analyses run on the pool, each
		// writing only its own slot; between them the results are
		// classified and de-duplicated serially in enumeration order, so
		// the candidate list does not depend on scheduling.
		type rewrite struct {
			src string
			ast *minic.Program
			err error
		}
		rewrites := make([]rewrite, len(steps))
		_ = parallel.ForEach(workers, len(steps), func(i int) error {
			rewrites[i].src, rewrites[i].ast, rewrites[i].err = base.Apply(steps[i])
			return nil
		})
		var cands, fresh []*explored
		for i, step := range steps {
			e := &explored{cand: Candidate{
				Name:  stepName(round, step),
				Steps: append(append([]transform.Step{}, best.steps...), step),
			}}
			switch err := rewrites[i].err; {
			case err == nil:
				if seen[rewrites[i].src] {
					continue // an equivalent rewrite was already explored
				}
				seen[rewrites[i].src] = true
				e.src, e.ast = rewrites[i].src, rewrites[i].ast
				fresh = append(fresh, e)
			case isNotProven(err):
				e.cand.Verdict, e.cand.Note = VerdictNotProven, err.Error()
			default:
				e.cand.Verdict, e.cand.Note = VerdictNotApplicable, err.Error()
			}
			cands = append(cands, e)
		}
		// Round 1 also simulates the baseline, as index 0 so that the
		// longest job starts first.
		jobs := len(fresh)
		if round == 1 {
			jobs++
		}
		var baseErr error
		_ = parallel.ForEach(workers, jobs, func(i int) error {
			if round == 1 {
				if i == 0 {
					res.BaselineCycles, ref, baseErr = runOnce(ctx, baseProg, &opts, simCfg)
					return nil
				}
				i--
			}
			e := fresh[i]
			// The seen set makes every candidate text of a search unique,
			// so there is nothing to look up: build from the rewrite's tree.
			prog, err := core.BuildAST(ctx, e.src, e.ast, canonOpts)
			if err != nil {
				e.cand.Verdict, e.cand.Note = VerdictCompileError, err.Error()
				return nil
			}
			if d := vetError(kernel, prog); d != nil {
				e.cand.Verdict, e.cand.Note = VerdictVetDirty, d.String()
				return nil
			}
			e.prog = prog
			e.bounds = bracket(prog, opts.Params, simCfg)
			e.cand.PredLower = e.bounds.Lower
			e.cand.PredUpper = e.bounds.Upper
			e.cand.UpperKnown = e.bounds.UpperKnown
			e.ok = true
			return nil
		})
		// A baseline that fails to run is the search's first error, as if it
		// had run before the round: round 1 analyses the text the baseline
		// was built from, which cannot fail.
		if baseErr != nil {
			return nil, fmt.Errorf("autotune: baseline run: %w", baseErr)
		}
		if round == 1 {
			best.cycles, res.WinnerCycles = res.BaselineCycles, res.BaselineCycles
		}
		// A build abandoned by the context reads as a compile error above.
		if err := canceled(); err != nil {
			return nil, err
		}

		// Expensive tier: simulate survivors, cheapest predicted first,
		// within the budget.
		var eligible []*explored
		for _, e := range cands {
			if e.ok {
				eligible = append(eligible, e)
			}
		}
		sort.SliceStable(eligible, func(i, j int) bool {
			if eligible[i].cand.PredLower != eligible[j].cand.PredLower {
				return eligible[i].cand.PredLower < eligible[j].cand.PredLower
			}
			return eligible[i].cand.Name < eligible[j].cand.Name
		})
		toSim := choose(eligible, best.cycles, budget-res.SimsRun)
		_ = parallel.ForEach(workers, len(toSim), func(i int) error {
			e := toSim[i]
			e.cycles, e.ref, e.err = runOnce(ctx, e.prog, &opts, simCfg)
			return nil
		})
		// Likewise a simulation the context cut short reads as a sim error:
		// no winner may be elected from a round that did not finish.
		if err := canceled(); err != nil {
			return nil, err
		}
		res.SimsRun += len(toSim)
		for _, e := range toSim {
			if e.err != nil {
				e.cand.Verdict, e.cand.Note = VerdictSimError, e.err.Error()
				continue
			}
			e.cand.Simulated = true
			e.cand.Cycles = e.cycles
			if ok, why := equivalent(ref, e.ref); !ok {
				e.cand.Verdict, e.cand.Note = VerdictWrongResult, why
				continue
			}
			if e.cycles < best.cycles {
				e.cand.Verdict = VerdictImproved
			} else {
				e.cand.Verdict = VerdictWorse
			}
		}

		// Round winner: fastest improvement, ties broken by name.
		var winner *explored
		for _, e := range toSim {
			if e.cand.Verdict != VerdictImproved {
				continue
			}
			if winner == nil ||
				e.cand.Cycles < winner.cand.Cycles ||
				(e.cand.Cycles == winner.cand.Cycles && e.cand.Name < winner.cand.Name) {
				winner = e
			}
		}
		if winner != nil {
			winner.cand.Verdict = VerdictWinner
		}
		for _, e := range cands {
			res.Candidates = append(res.Candidates, e.cand)
		}
		if winner == nil {
			break
		}
		best.src = winner.src
		best.cycles = winner.cand.Cycles
		best.steps = winner.cand.Steps
		best.name = winner.cand.Name
		best.bounds = winner.bounds
	}

	if best.name != "" {
		res.Winner = best.name
		res.WinnerCycles = best.cycles
		res.WinnerSteps = best.steps
		res.WinnerSource = best.src
		res.WinnerLower = best.bounds.Lower
		res.WinnerUpper = best.bounds.Upper
		res.WinnerUpperKnown = best.bounds.UpperKnown
	}
	return res, nil
}

// explored is one candidate of a round on its way through the tiers.
type explored struct {
	cand   Candidate
	src    string
	ast    *minic.Program // the parse of src
	prog   *core.Program
	bounds perfbound.CycleBounds
	ok     bool // built, vetted and bracketed: eligible for simulation
	// The simulation's outcome, valid once the round's simulations ran.
	cycles int64
	ref    *reference
	err    error
}

// choose labels a round's eligible candidates, sorted cheapest predicted
// lower bound first, and returns the ones to simulate: a candidate whose
// lower bound cannot beat best is pruned, and of the rest the first left
// are kept and the others are over budget.
func choose(eligible []*explored, best int64, left int) []*explored {
	var keep []*explored
	for _, e := range eligible {
		switch {
		case e.bounds.Lower >= best:
			e.cand.Verdict = VerdictPruned
			e.cand.Note = fmt.Sprintf("lower bound %d ≥ best %d", e.bounds.Lower, best)
		case len(keep) >= left:
			e.cand.Verdict = VerdictBudget
			e.cand.Note = "simulator budget exhausted"
		default:
			keep = append(keep, e)
		}
	}
	return keep
}

func isNotProven(err error) bool {
	return errors.Is(err, transform.ErrNotProven)
}
