// Package api defines the versioned request/response types of the nymble
// tool family and the one composition of each operation behind them:
// Vet, PerfSource and AnalyzePerf, NewStoredRun and RunKey. The nymbled
// daemon and the CLI -json modes (nymblec, nymblevet, nymbleperf,
// nymblesim) call those functions and marshal these exact structs
// through Encode, so the JSON a client sees over HTTP is byte-identical
// to what the corresponding CLI prints for the same input; nymbleopt's
// search report (NewOptimizeUnit) is CLI-only. Every top-level response carries a schema "version" field;
// fields marshal in the declared order and map keys sort, so reports are
// byte-stable across runs.
package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"paravis/internal/absint"
	"paravis/internal/area"
	"paravis/internal/core"
	"paravis/internal/depend"
	"paravis/internal/interval"
	"paravis/internal/minic"
	"paravis/internal/paraver/analysis"
	"paravis/internal/perfbound"
	"paravis/internal/profile"
	"paravis/internal/staticcheck"
	"paravis/internal/store"
	"paravis/internal/transform"
)

// Version is the schema version stamped into every top-level report.
// v2 added the per-loop "depend" section to VetUnit and PerfUnit.
// v3 added the "absint" abstract-interpretation section to VetUnit and
// made the depend section range-refined (proven-disjoint "may"
// dependences are discharged).
// v4 added nymbleopt's report (OptimizeReport) for the transformation
// search; the existing vet and perf sections are unchanged.
const Version = 4

// Encode writes v as two-space-indented JSON with a trailing newline —
// the one serialization shared by the CLIs and the daemon.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Error is the JSON error envelope of the daemon.
type Error struct {
	SchemaVersion int    `json:"version"`
	Err           string `json:"error"`
	// Kind classifies the failure for programmatic handling:
	// "bad_request", "too_large", "compile_error", "bad_args", "busy",
	// "shutting_down", "canceled", "deadline", "not_found", "not_done",
	// "no_trace", "evicted".
	Kind string `json:"kind,omitempty"`
}

// CompileRequest asks for a build of one MiniC source.
type CompileRequest struct {
	SchemaVersion int               `json:"version"`
	Source        string            `json:"source"`
	Defines       map[string]string `json:"defines,omitempty"`
	VectorLanes   int               `json:"vector_lanes,omitempty"`
}

// CompileReport describes a compiled accelerator: kernel interface,
// per-graph schedule shape and the estimated hardware footprint with and
// without the profiling unit. It is nymblec's -json output.
type CompileReport struct {
	SchemaVersion int           `json:"version"`
	Kernel        string        `json:"kernel"`
	Threads       int           `json:"threads"`
	VectorLanes   int           `json:"vector_lanes"`
	Params        []string      `json:"params"`
	Maps          []string      `json:"maps"`
	Locals        []string      `json:"locals"`
	Graphs        []GraphReport `json:"graphs"`
	Area          AreaReport    `json:"area"`
}

// GraphReport summarizes one dataflow graph's schedule.
type GraphReport struct {
	Name       string `json:"name"`
	Nodes      int    `json:"nodes"`
	Depth      int    `json:"pipeline_depth"`
	CondStage  int    `json:"cond_stage"`
	Reordering int    `json:"reordering_stages"`
}

// AreaReport summarizes the hardware footprint study for one design.
type AreaReport struct {
	BaseALMs       int     `json:"base_alms"`
	BaseRegisters  int     `json:"base_registers"`
	BaseFmaxMHz    float64 `json:"base_fmax_mhz"`
	RegOverheadPct float64 `json:"profiling_register_overhead_pct"`
	ALMOverheadPct float64 `json:"profiling_alm_overhead_pct"`
	FmaxDeltaMHz   float64 `json:"profiling_fmax_delta_mhz"`
}

// NewCompileReport assembles the report for a compiled program.
func NewCompileReport(p *core.Program) CompileReport {
	o := p.AreaOverhead(profile.DefaultConfig())
	rep := CompileReport{
		SchemaVersion: Version,
		Kernel:        p.Kernel.Name,
		Threads:       p.Kernel.NumThreads,
		VectorLanes:   p.Kernel.VectorLanes,
		Area:          NewAreaReport(o),
	}
	for _, prm := range p.Kernel.Params {
		kind := "int"
		if prm.Pointer {
			kind = "ptr"
		} else if prm.Float {
			kind = "float"
		}
		rep.Params = append(rep.Params, fmt.Sprintf("%s:%s", prm.Name, kind))
	}
	for _, m := range p.Kernel.Maps {
		rep.Maps = append(rep.Maps, fmt.Sprintf("%s(%s)", m.Dir, m.Name))
	}
	for _, l := range p.Kernel.Locals {
		rep.Locals = append(rep.Locals, fmt.Sprintf("%s[%d elems x %dB]", l.Name, l.NumElems, l.ElemWords*4))
	}
	for _, g := range p.Kernel.CollectGraphs() {
		gs := p.Sched.ByGraph[g]
		rep.Graphs = append(rep.Graphs, GraphReport{
			Name: g.Name, Nodes: len(g.Nodes), Depth: gs.Depth,
			CondStage: gs.CondStage, Reordering: gs.NumReordering,
		})
	}
	return rep
}

// NewAreaReport converts an overhead study into its wire form.
func NewAreaReport(o area.OverheadReport) AreaReport {
	return AreaReport{
		BaseALMs:       o.Without.ALMs,
		BaseRegisters:  o.Without.Registers,
		BaseFmaxMHz:    o.Without.FmaxMHz,
		RegOverheadPct: o.RegisterPct(),
		ALMOverheadPct: o.ALMPct(),
		FmaxDeltaMHz:   o.FmaxDeltaMHz(),
	}
}

// VetRequest asks for compile-time diagnostics on one source.
type VetRequest struct {
	SchemaVersion int `json:"version"`
	// Name labels the unit in the report (a file path for the CLI).
	Name    string            `json:"name,omitempty"`
	Source  string            `json:"source"`
	Defines map[string]string `json:"defines,omitempty"`
}

// VetUnit is one vetted compilation unit in a report.
type VetUnit struct {
	Name        string                   `json:"name"`
	Clean       bool                     `json:"clean"`
	Diagnostics []staticcheck.Diagnostic `json:"diagnostics"`
	// Depend summarizes the static dependence analysis per loop (schema
	// v2; absent when the unit does not parse or has no target region).
	Depend []DependLoop `json:"depend,omitempty"`
	// Absint summarizes the abstract interpretation of the target
	// function (schema v3; absent on the same terms as Depend).
	Absint *AbsintSummary `json:"absint,omitempty"`
}

// NewVetUnit wraps one unit's diagnostics (nil becomes an empty list so
// the JSON is stable) together with its dependence and absint summaries.
func NewVetUnit(name string, ds []staticcheck.Diagnostic, dep []DependLoop, abs *AbsintSummary) VetUnit {
	if ds == nil {
		ds = []staticcheck.Diagnostic{}
	}
	return VetUnit{Name: name, Clean: staticcheck.Clean(ds), Diagnostics: ds, Depend: dep, Absint: abs}
}

// Vet is the vet of one source as nymblevet and /v1/vet publish it: the
// diagnostics of core.Vet with the source's dependence and absint
// summaries.
func Vet(name, src string, defines map[string]string) VetUnit {
	ds := core.Vet(name, src, core.BuildOptions{Defines: defines})
	opts := minic.Options{Defines: defines}
	return NewVetUnit(name, ds, ParseDependSummary(src, opts), ParseAbsintSummary(src, opts))
}

// AbsintSummary is the wire form of the abstract interpreter's verdicts
// for one function: per-loop reachability and trip brackets plus the
// per-access bounds verdicts. Intervals are rendered as strings
// ("[0, 15]", "42", "[0, +inf]") so the JSON stays byte-stable and
// schema-simple.
type AbsintSummary struct {
	Function string `json:"function"`
	// Converged is false when the interpreter bailed (the sections below
	// are then empty and nothing is claimed).
	Converged bool           `json:"converged"`
	Loops     []AbsintLoop   `json:"loops,omitempty"`
	Accesses  []AbsintAccess `json:"accesses,omitempty"`
}

// AbsintLoop is one loop's reachability and trip bracket, keyed by the
// same "for@line:col" name the depend and perfbound sections use.
type AbsintLoop struct {
	Loop      string `json:"loop"`
	Reachable bool   `json:"reachable"`
	Trips     string `json:"trips"`
}

// AbsintAccess is one array access's bounds verdict ("unchecked",
// "in-bounds", "may-oob", "oob") with the proven subscript interval.
type AbsintAccess struct {
	Array   string `json:"array"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Write   bool   `json:"write"`
	Verdict string `json:"verdict"`
	// Index is the decisive subscript's interval (the element index for
	// flattened accesses), present only for may-oob/oob verdicts.
	Index string `json:"index,omitempty"`
}

// ParseAbsintSummary parses a source and summarizes the abstract
// interpretation of its target function. Like ParseDependSummary it
// returns nil when the source does not parse or lacks a target region.
func ParseAbsintSummary(src string, opts minic.Options) *AbsintSummary {
	prog, err := minic.Parse(src, opts)
	if err != nil {
		return nil
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		return nil
	}
	return NewAbsintSummary(fn, nil)
}

// NewAbsintSummary converts fn's abstract-interpretation result, with
// symbols bound under env, to its wire form. Loops appear in source
// order; accesses in the interpreter's deterministic order.
func NewAbsintSummary(fn *minic.FuncDecl, env map[string]int64) *AbsintSummary {
	if fn == nil {
		return nil
	}
	ai := absint.Analyze(fn, absint.Options{Env: env})
	sum := &AbsintSummary{Function: fn.Name, Converged: ai.OK}
	if !ai.OK {
		return sum
	}
	loops := make([]*absint.LoopFact, 0, len(ai.Loops))
	for _, lf := range ai.Loops {
		loops = append(loops, lf)
	}
	sort.Slice(loops, func(i, j int) bool {
		a, b := loops[i].Pos, loops[j].Pos
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	for _, lf := range loops {
		trips := lf.Trips.String()
		if !lf.Reachable {
			trips = "0"
		}
		sum.Loops = append(sum.Loops, AbsintLoop{
			Loop: lf.Name, Reachable: lf.Reachable, Trips: trips,
		})
	}
	for _, a := range ai.Accesses {
		acc := AbsintAccess{
			Array:   a.Array,
			Line:    a.Pos.Line,
			Col:     a.Pos.Col,
			Write:   a.Write,
			Verdict: a.Verdict.String(),
		}
		if a.Verdict == absint.MayOOB || a.Verdict == absint.OOB {
			acc.Index = a.Index.String()
		}
		sum.Accesses = append(sum.Accesses, acc)
	}
	return sum
}

// DependLoop is the wire form of one loop's dependence summary: the
// proven dependences in deterministic order and the three transformation
// verdicts with the blocking dependence named when not proven. Loops
// appear in source order.
type DependLoop struct {
	Loop   string `json:"loop"`
	Depth  int    `json:"depth"`
	Affine bool   `json:"affine"`
	// Deps lists the dependences in analysis order, rendered like the
	// vet diagnostics ("loop-carried flow dependence on A (distance 1)");
	// unproven ones carry a " (may)" suffix.
	Deps            []string `json:"deps,omitempty"`
	Unroll          string   `json:"unroll"`
	UnrollWhy       string   `json:"unroll_why,omitempty"`
	Tile            string   `json:"tile"`
	TileWhy         string   `json:"tile_why,omitempty"`
	DoubleBuffer    string   `json:"double_buffer"`
	DoubleBufferWhy string   `json:"double_buffer_why,omitempty"`
}

// ParseDependSummary parses a source and summarizes the dependence
// analysis of its target function. It returns nil when the source does
// not parse or lacks a target region — those states already surface as
// vet diagnostics, so the section simply stays absent.
func ParseDependSummary(src string, opts minic.Options) []DependLoop {
	prog, err := minic.Parse(src, opts)
	if err != nil {
		return nil
	}
	fn, _, err := minic.FindTarget(prog)
	if err != nil {
		return nil
	}
	return NewDependSummary(fn, nil)
}

// NewDependSummary converts the dependence report of fn, with trip
// counts folded under env, to its wire form. When the abstract
// interpreter converges, its proven index ranges refine the analysis:
// "may" dependences between accesses whose footprints provably never
// overlap are discharged (schema v3).
func NewDependSummary(fn *minic.FuncDecl, env map[string]int64) []DependLoop {
	if fn == nil {
		return nil
	}
	return dependSummary(transform.LegalityReport(fn, env))
}

func dependSummary(rep *depend.Report) []DependLoop {
	var out []DependLoop
	for _, l := range rep.Loops {
		dl := DependLoop{
			Loop:            l.Name,
			Depth:           l.Depth,
			Affine:          l.Affine,
			Unroll:          l.Legal.Unroll.String(),
			UnrollWhy:       l.Legal.UnrollWhy,
			Tile:            l.Legal.Tile.String(),
			TileWhy:         l.Legal.TileWhy,
			DoubleBuffer:    l.Legal.DoubleBuffer.String(),
			DoubleBufferWhy: l.Legal.DoubleBufferWhy,
		}
		for _, d := range l.Deps {
			s := d.Describe()
			if !d.Proven {
				s += " (may)"
			}
			dl.Deps = append(dl.Deps, s)
		}
		out = append(out, dl)
	}
	return out
}

// AbsintTripHints returns the abstract interpreter's proven trip
// brackets for fn under env (nil when nothing was proven), in the form
// perfbound.Config.TripHints consumes as a folding fallback.
func AbsintTripHints(fn *minic.FuncDecl, env map[string]int64) map[string]interval.Interval {
	if fn == nil {
		return nil
	}
	return absint.Analyze(fn, absint.Options{Env: env}).TripHints()
}

// VetReport is nymblevet's -json output and the daemon's /v1/vet
// response.
type VetReport struct {
	SchemaVersion int       `json:"version"`
	Units         []VetUnit `json:"units"`
}

// PerfRequest asks for a static performance-bound analysis.
type PerfRequest struct {
	SchemaVersion int               `json:"version"`
	Name          string            `json:"name,omitempty"`
	Source        string            `json:"source"`
	Defines       map[string]string `json:"defines,omitempty"`
	// Params are integer launch arguments for trip-count folding.
	Params map[string]int64 `json:"params,omitempty"`
}

// PerfUnit is one analyzed compilation unit in a report.
type PerfUnit struct {
	Name        string                   `json:"name"`
	Report      *perfbound.Report        `json:"report,omitempty"`
	Diagnostics []staticcheck.Diagnostic `json:"diagnostics"`
	// Depend summarizes the static dependence analysis per loop (schema
	// v2) — the source-level view behind the report's rec_mii floors.
	Depend []DependLoop `json:"depend,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// NewPerfUnit wraps one unit's bound report, diagnostics and dependence
// summary; err is the compile error when the unit did not build.
func NewPerfUnit(name string, rep *perfbound.Report, ds []staticcheck.Diagnostic, dep []DependLoop, err error) PerfUnit {
	if ds == nil {
		ds = []staticcheck.Diagnostic{}
	}
	u := PerfUnit{Name: name, Report: rep, Diagnostics: ds, Depend: dep}
	if err != nil {
		u.Error = err.Error()
	}
	return u
}

// AnalyzePerf is the perf analysis of one built unit as nymbleperf and
// /v1/perf publish it: the bound report with the abstract interpreter's
// trip brackets as the folding fallback, the perf-bound diagnostics of
// that same report, and the dependence summary.
// One abstract interpretation feeds both the trip brackets and the
// dependence summary's index ranges.
func AnalyzePerf(name string, prog *core.Program, params map[string]int64) PerfUnit {
	cfg := perfbound.DefaultConfig()
	var dep []DependLoop
	if prog.Fn != nil {
		ai := absint.Analyze(prog.Fn, absint.Options{Env: params})
		cfg.TripHints = ai.TripHints()
		dep = dependSummary(transform.LegalityReportFrom(prog.Fn, params, ai))
	}
	rep := perfbound.Analyze(prog.Kernel, prog.Sched, params, cfg)
	return NewPerfUnit(name, rep, staticcheck.PerfDiagnostics(name, rep), dep, nil)
}

// PerfSource is AnalyzePerf of a source built outside any cache, as
// nymbleperf runs it; a source that does not build yields a unit
// carrying the compile error.
func PerfSource(ctx context.Context, name, src string, opts core.BuildOptions, params map[string]int64) PerfUnit {
	prog, err := core.Build(ctx, src, opts)
	if err != nil {
		return NewPerfUnit(name, nil, nil, nil, err)
	}
	return AnalyzePerf(name, prog, params)
}

// PerfReport is nymbleperf's -json output and the daemon's /v1/perf
// response.
type PerfReport struct {
	SchemaVersion int        `json:"version"`
	Units         []PerfUnit `json:"units"`
}

// RunRequest asks for a full simulation with the profiling unit.
type RunRequest struct {
	SchemaVersion int               `json:"version"`
	Source        string            `json:"source"`
	Defines       map[string]string `json:"defines,omitempty"`
	VectorLanes   int               `json:"vector_lanes,omitempty"`
	// Ints / Floats are scalar launch arguments by parameter name.
	Ints   map[string]int64   `json:"ints,omitempty"`
	Floats map[string]float64 `json:"floats,omitempty"`
	// Buffers optionally preloads named map buffers with float32 data
	// (buffers not listed here are zero-filled and sized from the map
	// clauses, exactly like nymblesim).
	Buffers map[string][]float32 `json:"buffers,omitempty"`
	// NoProfile disables the profiling unit (no trace is produced).
	NoProfile bool `json:"no_profile,omitempty"`
	// MaxCycles overrides the simulation cycle budget (0 = default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// TimeoutMs bounds the wall-clock simulation time; past it the run
	// fails with kind "deadline".
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Wait makes POST /v1/run synchronous: the response is the finished
	// job document instead of a queued one.
	Wait bool `json:"wait,omitempty"`
}

// RunKey is the content address of a whole simulation: a hex SHA-256
// over the compile key (core.Key covers source, defines, lanes and the
// schedule/area config) plus every request field that changes the
// simulation's outcome — scalar arguments, preloaded buffers, the cycle
// budget and whether the profiling unit is attached. Two RunRequests
// with equal keys produce byte-identical trace bundles, so the key is
// what the artifact store hashes on. Transport fields (Wait, TimeoutMs)
// deliberately do not participate.
func RunKey(r *RunRequest) string {
	d := core.NewDigest()
	d.Str(core.Key(r.Source, core.BuildOptions{Defines: r.Defines, VectorLanes: r.VectorLanes}))
	core.DigestMap(d, r.Ints, func(v int64) { d.Uint(uint64(v)) })
	core.DigestMap(d, r.Floats, func(v float64) { d.Uint(math.Float64bits(v)) })
	core.DigestMap(d, r.Buffers, func(data []float32) {
		d.Uint(uint64(len(data)))
		for _, f := range data {
			d.Uint(uint64(math.Float32bits(f)))
		}
	})
	d.Bool(r.NoProfile)
	d.Uint(uint64(r.MaxCycles))
	return d.Sum()
}

// StoredRun is the summary document persisted next to a run's trace
// bundle in the artifact store; a warm hit rebuilds the job document
// from it without touching the compiler or the simulator.
type StoredRun struct {
	SchemaVersion int         `json:"version"`
	Kernel        string      `json:"kernel"`
	Summary       *RunSummary `json:"summary,omitempty"`
	// Trace lists the bundle files stored alongside (empty when the run
	// had profiling disabled).
	Trace []string `json:"trace,omitempty"`
}

// The files of a run's Paraver bundle, as nymbled stores and serves them.
const (
	TracePRV   = "trace.prv"
	TracePRVGz = "trace.prv.gz"
	TracePCF   = "trace.pcf"
	TraceROW   = "trace.row"
)

// NewStoredRun assembles the versioned document of a finished run: the
// run summary plus the bundle files a profiled run has. It is nymblesim's
// -json output and the summary.json nymbled persists for a run job.
func NewStoredRun(p *core.Program, out *core.RunOutput) (StoredRun, error) {
	sum, err := NewRunSummary(p, out)
	if err != nil {
		return StoredRun{}, err
	}
	doc := StoredRun{SchemaVersion: Version, Kernel: p.Kernel.Name, Summary: sum}
	if out.Streams != nil {
		doc.Trace = []string{TracePRV, TracePRVGz, TracePCF, TraceROW}
	}
	return doc, nil
}

// Health is the GET /healthz document: liveness plus the cache-shaped
// counters of the daemon's long-lived state.
type Health struct {
	SchemaVersion int                  `json:"version"`
	Status        string               `json:"status"`
	CompileCache  core.CacheStats      `json:"compile_cache"`
	Store         *store.Stats         `json:"store,omitempty"`
	Coalescing    *store.CoalesceStats `json:"coalescing,omitempty"`
}

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// Job is the daemon's job document: POST /v1/run returns it and
// GET /v1/jobs/{id} polls it.
type Job struct {
	SchemaVersion int    `json:"version"`
	ID            string `json:"id"`
	State         string `json:"state"`
	Kernel        string `json:"kernel,omitempty"`
	Error         string `json:"error,omitempty"`
	// ErrorKind classifies failures: "compile_error", "max_cycles",
	// "busy", "canceled", "deadline", "run_error".
	ErrorKind string      `json:"error_kind,omitempty"`
	Summary   *RunSummary `json:"summary,omitempty"`
	// Trace lists the downloadable bundle files once the job is done
	// (empty when profiling was disabled).
	Trace []string `json:"trace,omitempty"`
}

// RunSummary is the machine-readable form of nymblesim's run summary.
type RunSummary struct {
	Kernel           string             `json:"kernel"`
	Threads          int                `json:"threads"`
	Cycles           int64              `json:"cycles"`
	TimeMs           float64            `json:"time_ms"`
	FmaxMHz          float64            `json:"fmax_mhz"`
	Stalls           int64              `json:"stalls"`
	FpOps            int64              `json:"fp_ops"`
	LockAcquisitions int64              `json:"lock_acquisitions"`
	LockContended    int64              `json:"lock_contended"`
	DRAMTransactions int64              `json:"dram_transactions"`
	DRAMReadBytes    int64              `json:"dram_read_bytes"`
	DRAMWriteBytes   int64              `json:"dram_write_bytes"`
	StallsByLoop     map[string]int64   `json:"stalls_by_loop,omitempty"`
	ScalarsOut       map[string]float64 `json:"scalars_out,omitempty"`
	ScalarsOutInt    map[string]int64   `json:"scalars_out_int,omitempty"`
	// BWBytesPerCycle / GFlops are trace-derived (zero without profiling).
	BWBytesPerCycle float64 `json:"bw_bytes_per_cycle,omitempty"`
	GFlops          float64 `json:"gflops,omitempty"`
}

// NewRunSummary assembles the summary for a finished run, folding the
// trace (when the run has one) for its bandwidth and GFLOP/s figures.
func NewRunSummary(p *core.Program, out *core.RunOutput) (*RunSummary, error) {
	r := out.Result
	s := &RunSummary{
		Kernel:           p.Kernel.Name,
		Threads:          p.Kernel.NumThreads,
		Cycles:           r.Cycles,
		TimeMs:           1e3 * out.Seconds(r.Cycles),
		FmaxMHz:          out.FmaxMHz,
		Stalls:           r.TotalStalls(),
		FpOps:            r.TotalFpOps(),
		LockAcquisitions: r.LockAcquisitions,
		LockContended:    r.LockContended,
		DRAMTransactions: r.DRAM.Transactions,
		DRAMReadBytes:    r.DRAM.ReadWordsMoved * 4,
		DRAMWriteBytes:   r.DRAM.WriteWordsMoved * 4,
		StallsByLoop:     r.StallsByLoop,
		ScalarsOut:       r.ScalarsOut,
		ScalarsOutInt:    r.ScalarsOutInt,
	}
	if out.Streams != nil {
		ss := analysis.NewStreamStats(0, 0)
		if err := out.Streams.Scan(ss); err != nil {
			return nil, err
		}
		s.BWBytesPerCycle = ss.AvgBandwidthBytesPerCycle()
		s.GFlops = ss.GFlops(out.FmaxMHz)
	}
	return s, nil
}
