// Package core is the public face of the library: it ties the whole
// HLS-with-profiling flow together. Build compiles a MiniC+OpenMP source
// into a scheduled, executable accelerator; Run simulates it with the
// profiling unit attached and returns both the raw results and the Paraver
// trace, which WriteTrace writes as a bundle. The host side of a launch is
// the arguments the caller passes to Run; its cost (map-clause transfers,
// sequential thread starts) is modelled by the simulator. AreaOverhead
// reproduces the §V-B hardware-footprint study.
package core

import (
	"context"
	"fmt"

	"paravis/internal/area"
	"paravis/internal/hw"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/paraver"
	"paravis/internal/profile"
	"paravis/internal/schedule"
	"paravis/internal/sim"
	"paravis/internal/staticcheck"
)

// BuildOptions configures compilation.
type BuildOptions struct {
	// Defines acts like -D command-line macro definitions.
	Defines map[string]string
	// VectorLanes overrides the VECTOR width (default: VECTOR_LEN define
	// or 4).
	VectorLanes int
}

// Program is a compiled accelerator plus everything needed to simulate,
// profile and report on it.
type Program struct {
	Source string
	AST    *minic.Program
	Fn     *minic.FuncDecl
	Target *minic.TargetStmt
	Kernel *ir.Kernel
	Sched  *schedule.Schedule
	CK     *hw.CKernel
}

// Build compiles MiniC source through the full flow: parse, semantic
// analysis, lowering to dataflow IR, static scheduling and datapath
// compilation. The context is consulted between compilation phases so a
// server can abandon a build whose client has gone away; ctx may be nil,
// meaning Background.
func Build(ctx context.Context, src string, opts BuildOptions) (*Program, error) {
	prog, err := minic.Parse(src, minic.Options{
		Defines:     opts.Defines,
		VectorLanes: opts.VectorLanes,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return BuildAST(ctx, src, prog, opts)
}

// BuildAST is Build from an already parsed and sema-checked program: prog
// must be what minic.Parse returns for src under opts' defines and lane
// count. The returned Program holds prog, so the caller must not modify
// it afterwards.
func BuildAST(ctx context.Context, src string, prog *minic.Program, opts BuildOptions) (*Program, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: build canceled: %w", err)
	}
	fn, ts, err := minic.FindTarget(prog)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	k, err := lower.Lower(prog)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: build canceled: %w", err)
	}
	s, err := schedule.Build(k, schedule.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: post-schedule verification: %w", err)
	}
	ck, err := hw.Compile(k, s)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Program{
		Source: src,
		AST:    prog,
		Fn:     fn,
		Target: ts,
		Kernel: k,
		Sched:  s,
		CK:     ck,
	}, nil
}

// Vet runs the compile-time diagnostics engine on MiniC source without
// building an accelerator: the OpenMP race/map rules, the def-use lints,
// stall-lint and — when the source compiles — the hardened IR/schedule
// verifiers. file is used only to label the diagnostics.
//
// It has no product caller; kept for benchmark/static_sweep.go (and the
// replay of benchmark/optimize_gemm.go) until the benchmark's (d) in
// ROADMAP.md.
func Vet(file, src string, opts BuildOptions) []staticcheck.Diagnostic {
	ds, _ := staticcheck.CheckSource(file, src, minic.Options{
		Defines:     opts.Defines,
		VectorLanes: opts.VectorLanes,
	})
	return ds
}

// RunOutput bundles a simulation's results with its trace and reports.
type RunOutput struct {
	Result *sim.Result
	// Streams is the run's Paraver trace, a zero-copy view of the
	// profiling unit's records (nil when profiling is disabled): WriteTrace
	// emits the bundle from it and Streams.Scan feeds the analyses.
	Streams *paraver.StreamTrace
	// Area is the footprint estimate of the design as simulated (with or
	// without the profiling unit, per the run's config).
	Area area.Report
	// FmaxMHz is the estimated accelerator clock, used to convert cycles
	// to seconds for GB/s and GFLOP/s reporting.
	FmaxMHz float64
}

// Seconds converts a cycle count to seconds at the design's clock.
func (o *RunOutput) Seconds(cycles int64) float64 {
	return float64(cycles) / (o.FmaxMHz * 1e6)
}

// Run simulates the accelerator with the given arguments. The context is
// checked inside the simulator's event loop: cancellation or a deadline
// stops the run with a *sim.ErrCanceled, composing with cfg.MaxCycles.
func (p *Program) Run(ctx context.Context, args sim.Args, cfg sim.Config) (*RunOutput, error) {
	res, err := sim.Run(ctx, p.CK, args, cfg)
	if err != nil {
		return nil, err
	}
	out := &RunOutput{Result: res}
	out.Area = area.Estimate(p.Kernel, p.Sched, cfg.Profile)
	out.FmaxMHz = out.Area.FmaxMHz
	if res.Prof != nil {
		out.Streams = paraver.StreamOf(res.Prof, p.Kernel.Name, res.Cycles)
	}
	return out, nil
}

// AreaOverhead reproduces the paper's overhead study for this design: the
// footprint with and without the profiling infrastructure.
func (p *Program) AreaOverhead(profCfg profile.Config) area.OverheadReport {
	return area.Overhead(p.Kernel, p.Sched, profCfg)
}

// WriteTrace writes the run's Paraver bundle (.prv/.pcf/.row), streaming
// the records straight from the profiling unit, and returns the .prv path.
func (o *RunOutput) WriteTrace(dir, base string) (string, error) {
	if o.Streams == nil {
		return "", fmt.Errorf("core: run has no trace (profiling disabled)")
	}
	return o.Streams.WriteBundle(dir, base)
}

// WriteTraceGz writes the bundle with a gzip-compressed trace body
// (trace.prv.gz + plain .pcf/.row), streamed directly from the profiling
// unit, and returns the .prv.gz path.
func (o *RunOutput) WriteTraceGz(dir, base string) (string, error) {
	if o.Streams == nil {
		return "", fmt.Errorf("core: run has no trace (profiling disabled)")
	}
	return o.Streams.WriteBundleGz(dir, base)
}
