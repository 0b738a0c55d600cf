package experiments

import (
	"context"
	"fmt"
	"strings"

	"paravis/internal/core"
	"paravis/internal/depend"
	"paravis/internal/perfbound"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// DependLoopRow cross-validates the dependence engine on one loop of one
// seed workload: the static recurrence floor (RecMII) and dependence
// verdict against the simulator's measured initiation interval.
type DependLoopRow struct {
	Workload string
	Loop     string
	// RecMII is the static recurrence-constrained minimum II (0 when no
	// recurrence above the trivial floor was proven); RecWhy names the
	// binding cycle.
	RecMII int64
	RecWhy string
	// Verdict summarizes the AST-level dependence analysis of the loop.
	Verdict string
	// Iters / Execs / Active are the simulator's iteration-start count,
	// completed-execution count and frame-active cycles for the loop;
	// MeasuredII is Active/Iters.
	Iters      int64
	Execs      int64
	Active     int64
	MeasuredII float64
	// Sound: Active >= (Iters-Execs) * RecMII. The recurrence separates
	// consecutive iterations within one execution (each execution
	// reloads its carries), so exactly Iters-Execs iteration pairs are
	// constrained; a smaller active span would mean the hardware
	// initiated iterations faster than the proven recurrence allows.
	Sound bool
}

// DependResult is the static-dependence vs measured-II study
// (EXPERIMENTS.md E12).
type DependResult struct {
	Rows []*DependLoopRow
}

// loopVerdict compresses a loop's dependence report into one cell.
func loopVerdict(ld *depend.LoopDeps) string {
	if ld == nil {
		return "?"
	}
	if !ld.Affine {
		return "non-affine"
	}
	proven, may := 0, 0
	var first string
	for _, d := range ld.Deps {
		if d.Proven {
			proven++
			if first == "" {
				first = d.Describe()
			}
		} else {
			may++
		}
	}
	switch {
	case proven > 0:
		return first
	case may > 0:
		return fmt.Sprintf("%d unproven (may)", may)
	default:
		return "independent"
	}
}

// dependRows joins the three views of one workload — AST dependence
// report, scheduled-IR recurrence floors, and the simulator's per-loop
// iteration counters — by loop name.
func dependRows(name string, p *core.Program, env map[string]int64, cfg sim.Config, r *sim.Result) []*DependLoopRow {
	rep := perfbound.Analyze(p.Kernel, p.Sched, env, perfbound.Config{Config: cfg})
	ast := depend.Analyze(p.Fn, env)
	var rows []*DependLoopRow
	for _, l := range rep.Loops {
		iters := r.ItersByLoop[l.Name]
		if iters == 0 {
			continue
		}
		row := &DependLoopRow{
			Workload: name,
			Loop:     l.Name,
			RecMII:   l.RecMII,
			RecWhy:   l.RecWhy,
			Verdict:  loopVerdict(ast.Loop(l.Name)),
			Iters:    iters,
			Execs:    r.ExecsByLoop[l.Name],
			Active:   r.ActiveByLoop[l.Name],
		}
		row.MeasuredII = float64(row.Active) / float64(iters)
		row.Sound = row.Active >= (iters-row.Execs)*row.RecMII
		rows = append(rows, row)
	}
	return rows
}

// RunDepend runs the dependence cross-validation over the five GEMM
// optimization steps and the pi kernel: for every loop the simulator
// actually iterated, the measured II must sit at or above the statically
// proven recurrence floor.
func RunDepend(ctx context.Context, opts Options) (*DependResult, error) {
	res := &DependResult{}
	for _, v := range workloads.AllGEMMVersions {
		p, err := buildGEMM(ctx, v, opts.Threads)
		if err != nil {
			return nil, err
		}
		run, err := RunGEMM(ctx, v, opts.GEMMDim, opts.Threads, opts.SimCfg)
		if err != nil {
			return nil, err
		}
		env := map[string]int64{"DIM": int64(opts.GEMMDim)}
		res.Rows = append(res.Rows, dependRows(workloads.UnitName(v), p, env, opts.SimCfg, run.Out.Result)...)
	}
	p, err := buildPi(ctx)
	if err != nil {
		return nil, err
	}
	steps := opts.PiSteps[0]
	piOpts := opts
	piOpts.PiSteps = opts.PiSteps[:1]
	piOpts.Quiet = true
	pi, err := RunPi(ctx, piOpts)
	if err != nil {
		return nil, err
	}
	env := map[string]int64{"steps": int64(steps), "threads": int64(opts.Threads)}
	res.Rows = append(res.Rows, dependRows("pi", p, env, opts.SimCfg, pi.Runs[0].Out.Result)...)
	return res, nil
}

// Format renders E12.
func (r *DependResult) Format() string {
	var sb strings.Builder
	sb.WriteString("E12 — static dependence verdicts & RecMII vs measured per-loop II\n")
	sb.WriteString("sound iff active >= (iters - execs) * RecMII (0 = no recurrence proven)\n")
	fmt.Fprintf(&sb, "%-28s %-12s %7s %10s %10s %12s %7s  %s\n",
		"workload", "loop", "recMII", "iters", "execs", "measured II", "sound", "dependence verdict")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-28s %-12s %7d %10d %10d %12.1f %7v  %s\n",
			row.Workload, row.Loop, row.RecMII, row.Iters, row.Execs, row.MeasuredII, row.Sound, row.Verdict)
	}
	return sb.String()
}
