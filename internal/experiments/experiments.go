// Package experiments reproduces every table and figure of the paper's
// evaluation (§V). Each experiment returns a structured result with the
// paper's reported value next to the measured one, and a formatter that
// prints the comparison. cmd/paperbench and the top-level benchmarks drive
// these functions; EXPERIMENTS.md records their output.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"paravis/internal/area"
	"paravis/internal/core"
	"paravis/internal/parallel"
	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
	"paravis/internal/profile"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// Options scales the experiments. The paper uses 512x512 GEMM and up to
// 10M-step pi on a 140-150 MHz FPGA; the cycle-level simulator defaults to
// 64x64 and scaled step counts so the full suite runs in seconds. All
// reported comparisons are ratios and shapes, which are size-stable.
type Options struct {
	GEMMDim int
	PiSteps []int
	// Threads is the GEMM studies' thread count. The pi kernel fixes its
	// own (NT = 8), so RunPi ignores it.
	Threads int
	SimCfg  sim.Config
	// Quiet suppresses ASCII view rendering.
	Quiet bool
	// Workers bounds the number of design points simulated concurrently
	// within one experiment (<=0: parallel.DefaultWorkers()). Results are
	// collected by index, so the output is identical for every worker
	// count.
	Workers int
}

// DefaultOptions returns the fast default scaling.
func DefaultOptions() Options {
	cfg := sim.DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	return Options{
		GEMMDim: 64,
		// One tenth of the paper's 1M/4M/10M, rounded to multiples of
		// threads*BS_compute=64 (the kernel, like the paper's Fig. 10,
		// assumes divisibility).
		PiSteps: []int{102_400, 409_600, 1_024_000},
		Threads: 8,
		SimCfg:  cfg,
	}
}

// buildCache memoizes compiles across all experiments through the
// content-addressed core.Cache (the same cache type the nymbled daemon
// serves from), so each (workload, threads) design point is compiled
// exactly once no matter how many experiments or workers request it.
// Compiled programs are immutable (the simulator only reads the kernel),
// so sharing one instance across concurrent runs is safe.
var buildCache = core.NewCache()

// buildGEMM compiles one GEMM version (cached).
func buildGEMM(ctx context.Context, v workloads.GEMMVersion, threads int) (*core.Program, error) {
	p, _, err := buildCache.Build(ctx, workloads.GEMMSource(v), core.BuildOptions{
		Defines: workloads.GEMMDefinesThreads(v, threads),
	})
	return p, err
}

// buildPi compiles the pi kernel (cached).
func buildPi(ctx context.Context) (*core.Program, error) {
	p, _, err := buildCache.Build(ctx, workloads.PiSource, core.BuildOptions{
		Defines: workloads.PiDefines(),
	})
	return p, err
}

// GEMMRun is one simulated GEMM version with its trace-derived metrics.
type GEMMRun struct {
	Version workloads.GEMMVersion
	Dim     int
	Cycles  int64
	// Program is the compiled kernel the run executed; consumers use it
	// for source-level analyses (dependence-gated advice).
	Program *core.Program
	Out     *core.RunOutput
	// Stats is the trace fold (nil without profiling): a 96-column state
	// view and all-thread event series in 64 bins.
	Stats           *analysis.StreamStats
	BWBytesPerCycle float64
	BWGBs           float64
	GFlops          float64
	Correct         bool
}

// RunGEMM simulates one version and checks the result against the
// reference implementation.
func RunGEMM(ctx context.Context, v workloads.GEMMVersion, dim, threads int, cfg sim.Config) (*GEMMRun, error) {
	p, err := buildGEMM(ctx, v, threads)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v, err)
	}
	a, b := workloads.GEMMInputs(dim)
	cbuf := sim.NewZeroBuffer(dim * dim)
	out, err := p.Run(ctx, sim.Args{
		Ints: map[string]int64{"DIM": int64(dim)},
		Buffers: map[string]*sim.Buffer{
			"A": sim.NewFloatBuffer(a), "B": sim.NewFloatBuffer(b), "C": cbuf,
		},
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v, err)
	}
	want := workloads.GEMMRef(a, b, dim)
	got := cbuf.Floats()
	correct := true
	for i := range want {
		d := float64(got[i] - want[i])
		if d < -0.05 || d > 0.05 {
			correct = false
			break
		}
	}
	r := &GEMMRun{
		Version: v, Dim: dim, Cycles: out.Result.Cycles, Program: p, Out: out, Correct: correct,
	}
	if out.Streams != nil {
		r.Stats = analysis.NewStreamStats(96, 64)
		if err := out.Streams.Scan(r.Stats); err != nil {
			return nil, fmt.Errorf("%s: %w", v, err)
		}
		r.BWBytesPerCycle = r.Stats.AvgBandwidthBytesPerCycle()
		r.BWGBs = analysis.BandwidthGBs(r.BWBytesPerCycle, out.FmaxMHz)
		r.GFlops = r.Stats.GFlops(out.FmaxMHz)
	}
	return r, nil
}

// --- E1/E2: profiling overhead (§V-B) ---

// OverheadRow is one design's footprint comparison.
type OverheadRow struct {
	Name   string
	Report area.OverheadReport
}

// OverheadResult reproduces the §V-B study.
type OverheadResult struct {
	GEMM       []OverheadRow
	Pi         OverheadRow
	GeoMeanReg float64
	GeoMeanALM float64
	MaxReg     float64
	MaxALM     float64
}

// RunOverhead estimates all six designs with and without profiling. The
// designs compile independently and fan out across workers; the reduction
// runs in index order so the result is worker-count independent.
func RunOverhead(ctx context.Context, threads, workers int) (*OverheadResult, error) {
	n := len(workloads.AllGEMMVersions)
	rows := make([]OverheadRow, n+1) // GEMM versions + pi
	err := parallel.ForEach(workers, n+1, func(i int) error {
		var p *core.Program
		var err error
		name := "pi"
		if i < n {
			v := workloads.AllGEMMVersions[i]
			name = v.String()
			p, err = buildGEMM(ctx, v, threads)
		} else {
			p, err = buildPi(ctx)
		}
		if err != nil {
			return err
		}
		rows[i] = OverheadRow{Name: name, Report: p.AreaOverhead(profile.DefaultConfig())}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{GEMM: rows[:n], Pi: rows[n]}
	var regs, alms []float64
	for _, row := range res.GEMM {
		o := row.Report
		regs = append(regs, o.RegisterPct())
		alms = append(alms, o.ALMPct())
		if o.RegisterPct() > res.MaxReg {
			res.MaxReg = o.RegisterPct()
		}
		if o.ALMPct() > res.MaxALM {
			res.MaxALM = o.ALMPct()
		}
	}
	res.GeoMeanReg = area.GeoMean(regs)
	res.GeoMeanALM = area.GeoMean(alms)
	return res, nil
}

// Format renders the paper-vs-measured table.
func (r *OverheadResult) Format() string {
	var sb strings.Builder
	sb.WriteString("E1/E2 — Profiling overhead (paper §V-B)\n")
	sb.WriteString("paper (GEMM study): regs +<=5.4% (geo-mean 2.41%), ALMs +<=4% (geo-mean 3.42%), Fmax -8 MHz @ 140 MHz\n")
	sb.WriteString("paper (pi study):   regs +1.3%, ALMs +1.5%, Fmax -1 MHz @ 148 MHz\n")
	fmt.Fprintf(&sb, "%-22s %10s %10s %10s %10s %12s\n",
		"design", "regs+%", "ALMs+%", "dFmax MHz", "base MHz", "base ALMs")
	for _, row := range append(append([]OverheadRow{}, r.GEMM...), r.Pi) {
		o := row.Report
		fmt.Fprintf(&sb, "%-22s %10.2f %10.2f %10.1f %10.0f %12d\n",
			row.Name, o.RegisterPct(), o.ALMPct(), o.FmaxDeltaMHz(),
			o.Without.FmaxMHz, o.Without.ALMs)
	}
	fmt.Fprintf(&sb, "measured geo-mean (GEMM): regs +%.2f%% (paper 2.41%%), ALMs +%.2f%% (paper 3.42%%)\n",
		r.GeoMeanReg, r.GeoMeanALM)
	fmt.Fprintf(&sb, "measured max (GEMM): regs +%.2f%% (paper 5.4%%), ALMs +%.2f%% (paper 4%%)\n",
		r.MaxReg, r.MaxALM)
	return sb.String()
}

// --- E3: Fig. 6 — state view of the naive GEMM ---

// Fig6Result carries the state residency of the naive version.
type Fig6Result struct {
	Run          *GEMMRun
	Profile      analysis.StateProfile
	CriticalPct  float64
	SpinningPct  float64
	Timeline     []string
	ZoomEvidence string
}

// RunFig6 reproduces the Fig. 6 state view.
func RunFig6(ctx context.Context, opts Options) (*Fig6Result, error) {
	run, err := RunGEMM(ctx, workloads.GEMMNaive, opts.GEMMDim, opts.Threads, opts.SimCfg)
	if err != nil {
		return nil, err
	}
	if run.Stats == nil {
		return nil, fmt.Errorf("fig6 needs profiling enabled")
	}
	prof := run.Stats.StateProfileTask(0)
	res := &Fig6Result{
		Run:         run,
		Profile:     prof,
		CriticalPct: 100 * prof.TotalFraction[profile.StateCritical],
		SpinningPct: 100 * prof.TotalFraction[profile.StateSpinning],
	}
	if !opts.Quiet {
		res.Timeline = run.Stats.TimelineTask(0)
	}
	// Zoom evidence: find a moment where one thread is Critical while
	// another Spins (the paper zooms on thread 7 spinning on thread 6).
	var lockStates lockIntervals
	if err := run.Out.Streams.Scan(&lockStates); err != nil {
		return nil, err
	}
	res.ZoomEvidence = lockStates.findSpinWhileCritical()
	return res, nil
}

// lockIntervals is a trace visitor keeping the Critical and Spinning
// intervals, the only records the Fig. 6 zoom needs.
type lockIntervals struct {
	paraver.Discard
	crit, spin []paraver.StateRec
}

func (l *lockIntervals) State(s paraver.StateRec) error {
	switch s.State {
	case int(profile.StateCritical):
		l.crit = append(l.crit, s)
	case int(profile.StateSpinning):
		l.spin = append(l.spin, s)
	}
	return nil
}

// findSpinWhileCritical locates overlapping Critical/Spinning intervals.
func (l *lockIntervals) findSpinWhileCritical() string {
	for _, c := range l.crit {
		for _, s := range l.spin {
			if s.Thread != c.Thread && s.Begin < c.End && c.Begin < s.End {
				return fmt.Sprintf("cycle %d: thread %d spinning on the lock held by thread %d (in critical)",
					maxI64(s.Begin, c.Begin), s.Thread, c.Thread)
			}
		}
	}
	return "no overlapping critical/spin intervals found"
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Format renders the comparison.
func (r *Fig6Result) Format() string {
	var sb strings.Builder
	sb.WriteString("E3 — Fig. 6: Paraver state view, naive GEMM\n")
	fmt.Fprintf(&sb, "paper:    ~1.54%% of time in critical sections, ~1.57%% spinning (512x512)\n")
	fmt.Fprintf(&sb, "measured: %.2f%% critical, %.2f%% spinning (%dx%d), %d cycles\n",
		r.CriticalPct, r.SpinningPct, r.Run.Dim, r.Run.Dim, r.Run.Cycles)
	fmt.Fprintf(&sb, "zoom:     %s\n", r.ZoomEvidence)
	if len(r.Timeline) > 0 {
		sb.WriteString("state timeline (R=Running C=Critical S=Spinning .=Idle):\n")
		for _, row := range r.Timeline {
			sb.WriteString("  " + row + "\n")
		}
	}
	return sb.String()
}

// --- E4 + E5: Fig. 7 and the §V-C speedups ---

// SpeedupResult holds all five versions' cycles and bandwidths.
type SpeedupResult struct {
	Runs []*GEMMRun
	// Sparklines of memory throughput over time, per version (Fig. 7).
	BWSeries []string
}

// PaperSpeedups are the paper's reported execution-time ratios vs naive.
var PaperSpeedups = map[workloads.GEMMVersion]float64{
	workloads.GEMMNaive:          1.0,
	workloads.GEMMNoCritical:     1.14,
	workloads.GEMMPartialVec:     1.14 * 1.93,
	workloads.GEMMBlocked:        5.28,
	workloads.GEMMDoubleBuffered: 19.0,
}

// RunSpeedups simulates all five versions, fanned out across workers.
func RunSpeedups(ctx context.Context, opts Options) (*SpeedupResult, error) {
	n := len(workloads.AllGEMMVersions)
	res := &SpeedupResult{
		Runs:     make([]*GEMMRun, n),
		BWSeries: make([]string, n),
	}
	err := parallel.ForEach(opts.Workers, n, func(i int) error {
		v := workloads.AllGEMMVersions[i]
		run, err := RunGEMM(ctx, v, opts.GEMMDim, opts.Threads, opts.SimCfg)
		if err != nil {
			return err
		}
		if !run.Correct {
			return fmt.Errorf("%s produced wrong results", v)
		}
		res.Runs[i] = run
		if !opts.Quiet && run.Stats != nil {
			res.BWSeries[i] = analysis.RenderSeries(run.Stats.MemSeries(), 64)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Speedup returns the measured ratio of version v over naive.
func (r *SpeedupResult) Speedup(v workloads.GEMMVersion) float64 {
	return float64(r.Runs[workloads.GEMMNaive].Cycles) / float64(r.Runs[v].Cycles)
}

// Format renders E4+E5.
func (r *SpeedupResult) Format() string {
	var sb strings.Builder
	sb.WriteString("E5 — §V-C: GEMM optimization speedups (vs naive)\n")
	fmt.Fprintf(&sb, "%-22s %12s %10s %12s %12s %10s\n",
		"version", "cycles", "speedup", "paper", "BW B/cyc", "GB/s")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "%-22s %12d %9.2fx %11.2fx %12.3f %10.2f\n",
			run.Version, run.Cycles, r.Speedup(run.Version),
			PaperSpeedups[run.Version], run.BWBytesPerCycle, run.BWGBs)
	}
	sb.WriteString("\nE4 — Fig. 7: relative memory throughput over execution time\n")
	sb.WriteString("paper: vectorization raises achieved bandwidth; blocking trades external for\n")
	sb.WriteString("local bandwidth; double buffering reaches the highest external throughput\n")
	for i, run := range r.Runs {
		if r.BWSeries[i] != "" {
			fmt.Fprintf(&sb, "%-22s |%s|\n", run.Version, r.BWSeries[i])
		}
	}
	return sb.String()
}

// --- E6/E7: Figs. 8-9 — blocking phases vs double-buffer overlap ---

// PhaseResult compares the load/compute structure of v4 and v5.
type PhaseResult struct {
	Blocked                         *GEMMRun
	DoubleBuffered                  *GEMMRun
	BlockedStats                    analysis.PhaseStats
	DoubleStats                     analysis.PhaseStats
	BlockedMemSpark, BlockedFpSpark string
	DoubleMemSpark, DoubleFpSpark   string
}

// RunPhases reproduces Figs. 8 and 9. Like the paper's zoomed views, the
// phase structure is analyzed on a single thread's event stream, sampled at
// a fine period.
func RunPhases(ctx context.Context, opts Options) (*PhaseResult, error) {
	cfg := opts.SimCfg
	cfg.Profile.SamplePeriod = 256
	versions := []workloads.GEMMVersion{workloads.GEMMBlocked, workloads.GEMMDoubleBuffered}
	runs := make([]*GEMMRun, len(versions))
	err := parallel.ForEach(opts.Workers, len(versions), func(i int) error {
		run, err := RunGEMM(ctx, versions[i], opts.GEMMDim, opts.Threads, cfg)
		if err != nil {
			return err
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	blocked, double := runs[0], runs[1]
	res := &PhaseResult{Blocked: blocked, DoubleBuffered: double}
	period := cfg.Profile.SamplePeriod
	if res.BlockedStats, res.BlockedMemSpark, res.BlockedFpSpark, err = phaseView(blocked, period, opts.Quiet); err != nil {
		return nil, err
	}
	if res.DoubleStats, res.DoubleMemSpark, res.DoubleFpSpark, err = phaseView(double, period, opts.Quiet); err != nil {
		return nil, err
	}
	return res, nil
}

// phaseView folds one run's thread-0 events twice: binned at the sampling
// period for the phase classification and, unless quiet, at cycles/96 for
// the read-traffic and FLOP sparklines.
func phaseView(r *GEMMRun, period int64, quiet bool) (st analysis.PhaseStats, memSpark, fpSpark string, err error) {
	ss := analysis.NewStreamStatsWidth(0, period, 0)
	if err = r.Out.Streams.Scan(ss); err != nil {
		return
	}
	st = analysis.ClassifyPhases(ss.MemSeries(), ss.Series(paraver.EventFpOps), 0.05, 0.05)
	if quiet {
		return
	}
	ss = analysis.NewStreamStatsWidth(0, r.Cycles/96, 0)
	if err = r.Out.Streams.Scan(ss); err != nil {
		return
	}
	memSpark = analysis.RenderSeries(ss.Series(paraver.EventReadBytes), 72)
	fpSpark = analysis.RenderSeries(ss.Series(paraver.EventFpOps), 72)
	return
}

// Format renders E6/E7.
func (r *PhaseResult) Format() string {
	var sb strings.Builder
	sb.WriteString("E6 — Fig. 8: blocked GEMM has distinct load and compute phases\n")
	fmt.Fprintf(&sb, "measured: %s\n", r.BlockedStats)
	if r.BlockedMemSpark != "" {
		fmt.Fprintf(&sb, "  mem |%s|\n  fp  |%s|\n", r.BlockedMemSpark, r.BlockedFpSpark)
	}
	sb.WriteString("\nE7 — Fig. 9: double buffering overlaps prefetch with compute\n")
	fmt.Fprintf(&sb, "measured: %s\n", r.DoubleStats)
	if r.DoubleMemSpark != "" {
		fmt.Fprintf(&sb, "  mem |%s|\n  fp  |%s|\n", r.DoubleMemSpark, r.DoubleFpSpark)
	}
	fmt.Fprintf(&sb, "\noverlap fraction: blocked %.2f -> double-buffered %.2f (paper: phases vs overlap)\n",
		r.BlockedStats.Overlap(), r.DoubleStats.Overlap())
	fmt.Fprintf(&sb, "avg external bandwidth: blocked %.3f B/cyc -> double-buffered %.3f B/cyc (paper: v5 highest)\n",
		r.Blocked.BWBytesPerCycle, r.DoubleBuffered.BWBytesPerCycle)
	return sb.String()
}

// --- E8: Figs. 11-13 — pi thread-start staggering and GFLOP/s scaling ---

// PiRun is one pi execution.
type PiRun struct {
	Steps  int
	Cycles int64
	GFlops float64
	Out    *core.RunOutput
	// DisjointThreads is true when the earliest thread finished before the
	// last one started (Fig. 11's observation).
	DisjointThreads bool
	// ParallelFraction is the fraction of the run during which all threads
	// were simultaneously active.
	ParallelFraction float64
	Timeline         []string
	Correct          bool
}

// PiResult is the three-point scaling study.
type PiResult struct {
	Runs []*PiRun
}

// piNT and piBS are NT and BS_compute of workloads.PiSource: each thread
// sums steps/piNT terms in blocks of piBS, so a step count that is not a
// multiple of piNT*piBS sums overlapping and out-of-range terms.
const piNT, piBS = 8, 8

// piStepsErr refuses a step count the kernel does not sum exactly.
func piStepsErr(steps int) error {
	if steps <= 0 || steps%(piNT*piBS) != 0 {
		return fmt.Errorf("pi: %d steps is not a positive multiple of %d (NT x BS_compute)", steps, piNT*piBS)
	}
	return nil
}

// RunPi simulates the pi kernel for each step count and judges each sum
// against the host reference. The program is compiled once and shared;
// the step-count sweep fans out across workers.
func RunPi(ctx context.Context, opts Options) (*PiResult, error) {
	for _, steps := range opts.PiSteps {
		if err := piStepsErr(steps); err != nil {
			return nil, err
		}
	}
	p, err := buildPi(ctx)
	if err != nil {
		return nil, err
	}
	res := &PiResult{Runs: make([]*PiRun, len(opts.PiSteps))}
	err = parallel.ForEach(opts.Workers, len(opts.PiSteps), func(i int) error {
		steps := opts.PiSteps[i]
		out, err := p.Run(ctx, sim.Args{
			Ints:   map[string]int64{"steps": int64(steps), "threads": piNT},
			Floats: map[string]float64{"step": 1.0 / float64(steps), "final_sum": 0},
		}, opts.SimCfg)
		if err != nil {
			return fmt.Errorf("pi %d: %w", steps, err)
		}
		run := &PiRun{Steps: steps, Cycles: out.Result.Cycles, Out: out}
		if out.Streams != nil {
			ss := analysis.NewStreamStats(96, 0)
			if err := out.Streams.Scan(ss); err != nil {
				return fmt.Errorf("pi %d: %w", steps, err)
			}
			run.GFlops = ss.GFlops(out.FmaxMHz)
			if !opts.Quiet {
				run.Timeline = ss.TimelineTask(0)
			}
		}
		r := out.Result
		run.DisjointThreads = r.ThreadEnd[0] < r.ThreadStart[len(r.ThreadStart)-1]
		lastStart := r.ThreadStart[len(r.ThreadStart)-1]
		firstEnd := r.ThreadEnd[0]
		for _, e := range r.ThreadEnd {
			if e < firstEnd {
				firstEnd = e
			}
		}
		if overlap := firstEnd - lastStart; overlap > 0 && r.Cycles > 0 {
			run.ParallelFraction = float64(overlap) / float64(r.Cycles)
		}
		want := float64(workloads.PiRefSum(steps, piNT))
		run.Correct = math.Abs(r.ScalarsOut["final_sum"]-want) <= 1e-3*want
		res.Runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Format renders E8.
func (r *PiResult) Format() string {
	var sb strings.Builder
	sb.WriteString("E8 — Figs. 11-13: pi scaling with iteration count\n")
	sb.WriteString("paper: 1M iters -> 0.146 GFLOP/s (threads finish before later ones start),\n")
	sb.WriteString("       4M -> 0.556 (partial overlap), 10M -> 1.507 (fully parallel)\n")
	fmt.Fprintf(&sb, "%-12s %12s %10s %12s %10s %8s\n",
		"steps", "cycles", "GFLOP/s", "parallel%", "disjoint", "pi ok")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "%-12d %12d %10.3f %11.1f%% %10v %8v\n",
			run.Steps, run.Cycles, run.GFlops, 100*run.ParallelFraction,
			run.DisjointThreads, run.Correct)
	}
	if len(r.Runs) >= 3 && r.Runs[0].GFlops > 0 {
		fmt.Fprintf(&sb, "scaling: x%.2f then x%.2f (paper: x3.81 then x2.71)\n",
			r.Runs[1].GFlops/r.Runs[0].GFlops, r.Runs[2].GFlops/r.Runs[1].GFlops)
	}
	for i, run := range r.Runs {
		if len(run.Timeline) > 0 {
			fmt.Fprintf(&sb, "state view, steps=%d:\n", run.Steps)
			for _, row := range run.Timeline {
				sb.WriteString("  " + row + "\n")
			}
			if i != len(r.Runs)-1 {
				sb.WriteString("\n")
			}
		}
	}
	return sb.String()
}

// --- E9: thread scaling (§V-A) ---

// ThreadScalingResult sweeps the hardware thread count.
type ThreadScalingResult struct {
	Threads []int
	Cycles  []int64
	// SaturationAt is the smallest thread count within 10% of the best.
	SaturationAt int
}

// RunThreadScaling sweeps NT for the no-critical GEMM (the naive one
// serializes on the lock, masking the effect). Each thread count is an
// independent design point and fans out across workers.
func RunThreadScaling(ctx context.Context, opts Options, counts []int) (*ThreadScalingResult, error) {
	res := &ThreadScalingResult{
		Threads: append([]int(nil), counts...),
		Cycles:  make([]int64, len(counts)),
	}
	err := parallel.ForEach(opts.Workers, len(counts), func(i int) error {
		run, err := RunGEMM(ctx, workloads.GEMMNoCritical, opts.GEMMDim, counts[i], opts.SimCfg)
		if err != nil {
			return err
		}
		res.Cycles[i] = run.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	var best int64 = 1<<62 - 1
	for _, c := range res.Cycles {
		if c < best {
			best = c
		}
	}
	for i, c := range res.Cycles {
		if float64(c) <= 1.10*float64(best) {
			res.SaturationAt = res.Threads[i]
			break
		}
	}
	return res, nil
}

// Format renders E9.
func (r *ThreadScalingResult) Format() string {
	var sb strings.Builder
	sb.WriteString("E9 — §V-A: thread scaling (paper: 8 threads saturate the accelerator)\n")
	fmt.Fprintf(&sb, "%-10s %12s %10s\n", "threads", "cycles", "speedup")
	base := float64(r.Cycles[0])
	for i := range r.Threads {
		fmt.Fprintf(&sb, "%-10d %12d %9.2fx\n", r.Threads[i], r.Cycles[i], base/float64(r.Cycles[i]))
	}
	fmt.Fprintf(&sb, "measured saturation at %d threads (paper: 8)\n", r.SaturationAt)
	return sb.String()
}
