package experiments

import (
	"context"
	"fmt"
	"strings"

	"paravis/internal/absint"
	"paravis/internal/core"
	"paravis/internal/perfbound"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// predict runs the static model on p over the machine cfg simulates,
// with the abstract interpreter's proven trip brackets for p's target
// function as the evaluator's folding fallback. Hints are the weakest
// tier — workloads whose trips already fold are untouched, so E10's
// soundness property is preserved by construction.
func predict(p *core.Program, env map[string]int64, cfg sim.Config) *perfbound.Report {
	hints := absint.Analyze(p.Fn, absint.Options{Env: env}).TripHints()
	return perfbound.Analyze(p.Kernel, p.Sched, env, perfbound.Config{Config: cfg, TripHints: hints})
}

// BoundRow cross-validates the static model on one workload: predicted
// cycle bounds against the simulator's measurement.
type BoundRow struct {
	Name     string
	Lower    int64
	Measured int64
	Upper    int64
	// Sound: Lower <= Measured <= Upper (the property every row must
	// satisfy for the model to be a valid pre-simulation bound).
	Sound bool
	// LowerGapPct is how far below the measurement the lower bound sits
	// (0% = exact), UpperRatio how many times above it the upper bound
	// sits (1.0 = exact).
	LowerGapPct float64
	UpperRatio  float64
	// StallPct is the measured fraction of active thread cycles spent
	// stalled — context for why the measurement sits where it does
	// between the bounds.
	StallPct float64
	MemBound bool
}

// BoundsResult is the predicted-vs-measured study over the seed
// workloads (EXPERIMENTS.md E10).
type BoundsResult struct {
	Rows []*BoundRow
}

// RunBounds runs the static performance-bound analyzer and the simulator
// over the five GEMM optimization steps and the pi kernel, reporting
// prediction error per step. Simulations come from the shared build/run
// paths, so measured numbers are identical to the other experiments'.
func RunBounds(ctx context.Context, opts Options) (*BoundsResult, error) {
	res := &BoundsResult{}
	for _, v := range workloads.AllGEMMVersions {
		p, err := buildGEMM(ctx, v, gemmThreads)
		if err != nil {
			return nil, err
		}
		env := map[string]int64{"DIM": int64(opts.GEMMDim)}
		rep := predict(p, env, opts.SimCfg)
		run, err := RunGEMM(ctx, v, opts.GEMMDim, gemmThreads, opts.SimCfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, boundRow(workloads.UnitName(v), rep, run.Cycles, run.Out.Result))
	}
	p, err := buildPi(ctx)
	if err != nil {
		return nil, err
	}
	steps := opts.PiSteps[0]
	piEnv := map[string]int64{"steps": int64(steps), "threads": piNT}
	rep := predict(p, piEnv, opts.SimCfg)
	piOpts := opts
	piOpts.PiSteps = opts.PiSteps[:1]
	piOpts.Quiet = true
	pi, err := RunPi(ctx, piOpts)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, boundRow("pi", rep, pi.Runs[0].Cycles, pi.Runs[0].Out.Result))
	return res, nil
}

func boundRow(name string, rep *perfbound.Report, measured int64, r *sim.Result) *BoundRow {
	row := &BoundRow{
		Name:     name,
		Lower:    rep.Cycles.Lower,
		Measured: measured,
		Upper:    rep.Cycles.Upper,
		MemBound: rep.Roofline.MemoryBound,
	}
	row.Sound = row.Lower <= measured && rep.Cycles.UpperKnown && measured <= row.Upper
	if measured > 0 {
		row.LowerGapPct = 100 * float64(measured-row.Lower) / float64(measured)
		row.UpperRatio = float64(row.Upper) / float64(measured)
	}
	var busy int64
	for t := range r.ThreadEnd {
		busy += r.ThreadEnd[t] - r.ThreadStart[t]
	}
	if busy > 0 {
		row.StallPct = 100 * float64(r.TotalStalls()) / float64(busy)
	}
	return row
}

// Format renders E10.
func (r *BoundsResult) Format() string {
	var sb strings.Builder
	sb.WriteString("E10 — static performance bounds vs simulator (predict-then-measure)\n")
	sb.WriteString("sound iff predicted lower <= measured <= predicted upper\n")
	fmt.Fprintf(&sb, "%-28s %12s %12s %12s %7s %9s %8s %7s\n",
		"workload", "lower", "measured", "upper", "sound", "low gap", "up x", "stall%")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-28s %12d %12d %12d %7v %8.1f%% %8.2f %6.1f%%\n",
			row.Name, row.Lower, row.Measured, row.Upper, row.Sound,
			row.LowerGapPct, row.UpperRatio, row.StallPct)
	}
	return sb.String()
}
