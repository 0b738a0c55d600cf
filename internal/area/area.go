// Package area estimates the hardware footprint (ALMs, registers, DSPs,
// BRAM bits) and the achievable clock frequency of a compiled accelerator,
// with and without the profiling infrastructure. The paper quantifies the
// profiling overhead after place & route on a Stratix 10; without an FPGA
// toolchain we use a component-level cost model: every scheduled operator,
// pipeline-balance register, reordering-stage context, memory port and
// profiling counter contributes its typical resource cost, and Fmax is
// derived from design size plus the profiling unit's snooping fan-in. The
// absolute numbers are indicative; the relative overheads (the paper's
// Table in §V-B) are the reproduced quantity.
package area

import (
	"math"

	"paravis/internal/ir"
	"paravis/internal/profile"
	"paravis/internal/schedule"
)

// Coefficients parametrizes the cost model. All area figures are per
// operator instance; vector operators scale with lane count.
type Coefficients struct {
	// Arithmetic operator costs {ALMs, Registers, DSPs}.
	IntAddALM, IntAddReg   int
	IntMulALM, IntMulReg   int
	IntDivALM, IntDivReg   int
	FpAddALM, FpAddReg     int
	FpMulALM, FpMulReg     int
	FpDivALM, FpDivReg     int
	CmpALM                 int
	LogicALM               int
	ConvALM, ConvReg       int
	LaneALM                int
	MemPortALM, MemPortReg int
	LockALM                int
	LoopCtlALM             int

	// Per-stage controller and reordering contexts.
	StageALM, StageReg  int
	ReorderALMPerThread int

	// Fixed infrastructure.
	AvalonALMPerThread, AvalonRegPerThread int
	SemaphoreALM                           int
	PreloaderALM, PreloaderReg             int
	BaseALM, BaseReg                       int

	// Profiling unit.
	ProfCounterALM, ProfCounterReg int // per 32-bit counter
	ProfFSMALM, ProfFSMReg         int
	ProfMasterALM, ProfMasterReg   int

	// Fmax model: FmaxMHz = FmaxC0 - FmaxALog*ln(ALMs+Regs) -
	// FmaxSnoop*ln(1+snoopedSignals).
	FmaxC0    float64
	FmaxALog  float64
	FmaxSnoop float64
}

// DefaultCoefficients returns costs typical of Stratix-10-class devices.
func DefaultCoefficients() Coefficients {
	return Coefficients{
		IntAddALM: 32, IntAddReg: 33,
		IntMulALM: 40, IntMulReg: 64,
		IntDivALM: 350, IntDivReg: 420,
		FpAddALM: 120, FpAddReg: 180,
		FpMulALM: 80, FpMulReg: 150,
		FpDivALM: 600, FpDivReg: 900,
		CmpALM:   24,
		LogicALM: 16,
		ConvALM:  90, ConvReg: 120,
		LaneALM:    24,
		MemPortALM: 150, MemPortReg: 210,
		LockALM:    60,
		LoopCtlALM: 40,
		StageALM:   12, StageReg: 10,
		ReorderALMPerThread: 30,
		AvalonALMPerThread:  300, AvalonRegPerThread: 420,
		SemaphoreALM: 150,
		PreloaderALM: 400, PreloaderReg: 380,
		BaseALM: 13000, BaseReg: 17000,
		ProfCounterALM: 10, ProfCounterReg: 20,
		ProfFSMALM: 160, ProfFSMReg: 150,
		ProfMasterALM: 200, ProfMasterReg: 280,
		FmaxC0:    278,
		FmaxALog:  11.5,
		FmaxSnoop: 0.9,
	}
}

// coeffs is the cost model every estimate uses.
var coeffs = DefaultCoefficients()

// Report is an estimated hardware footprint.
type Report struct {
	ALMs      int
	Registers int
	DSPs      int
	BRAMBits  int64
	FmaxMHz   float64
}

// OverheadReport compares footprints with and without the profiling unit,
// as in the paper's §V-B.
type OverheadReport struct {
	Without Report
	With    Report
}

// RegisterPct is the register overhead in percent.
func (o OverheadReport) RegisterPct() float64 {
	if o.Without.Registers == 0 {
		return 0
	}
	return 100 * float64(o.With.Registers-o.Without.Registers) / float64(o.Without.Registers)
}

// ALMPct is the ALM overhead in percent.
func (o OverheadReport) ALMPct() float64 {
	if o.Without.ALMs == 0 {
		return 0
	}
	return 100 * float64(o.With.ALMs-o.Without.ALMs) / float64(o.Without.ALMs)
}

// FmaxDeltaMHz is the frequency degradation (positive = slower with
// profiling).
func (o OverheadReport) FmaxDeltaMHz() float64 {
	return o.Without.FmaxMHz - o.With.FmaxMHz
}

// Estimate computes the footprint of a scheduled kernel. profCfg describes
// the profiling unit, read through profile.Config.WithDefaults as the
// unit reads it; pass Enabled=false for the baseline design.
func Estimate(k *ir.Kernel, s *schedule.Schedule, profCfg profile.Config) Report {
	c := &coeffs
	profCfg = profCfg.WithDefaults()
	var r Report
	threads := k.NumThreads

	// Fixed infrastructure.
	r.ALMs += c.BaseALM + c.SemaphoreALM + c.PreloaderALM + threads*c.AvalonALMPerThread
	r.Registers += c.BaseReg + c.PreloaderReg + threads*c.AvalonRegPerThread

	// Local memories are replicated per thread.
	for _, la := range k.Locals {
		r.BRAMBits += int64(la.SizeBytes()) * 8 * int64(threads)
	}

	snooped := 0
	lastUse := make([]int, k.NumNodes()) // addGraph's, by node ID
	for _, g := range k.CollectGraphs() {
		gs := s.Graph(g)
		r.addGraph(s, gs, lastUse, threads, c)
		snooped += gs.Depth * threads
	}

	// Snooped signals: one activation wire per stage per thread plus the
	// per-thread memory-port request wires.
	snooped += 2 * threads

	if profCfg.Enabled {
		// State tracking: each thread's state plus record assembly.
		r.Registers += profile.StateBits*threads + profile.StateRecordBits(threads)
		r.ALMs += c.LogicALM * threads // change detectors

		// The event counters of every thread.
		counters := profile.EventCounters * threads
		r.ALMs += counters * c.ProfCounterALM
		r.Registers += counters * c.ProfCounterReg

		// Flush engine and its Avalon master.
		r.ALMs += c.ProfFSMALM + c.ProfMasterALM
		r.Registers += c.ProfFSMReg + c.ProfMasterReg

		// On-chip buffers.
		lines := profCfg.StateBufferLines + profCfg.EventBufferLines
		r.BRAMBits += int64(lines) * profile.LineBits
	}

	logicSize := float64(r.ALMs + r.Registers)
	r.FmaxMHz = c.FmaxC0 - c.FmaxALog*math.Log(logicSize)
	if profCfg.Enabled {
		r.FmaxMHz -= c.FmaxSnoop * math.Log(1+float64(snooped))
	}
	if r.FmaxMHz < 50 {
		r.FmaxMHz = 50
	}
	return r
}

// addGraph accumulates one dataflow graph's operators, pipeline registers
// and controller. lastUse, by node ID and zero for the graph's nodes,
// receives each node's last consumer stage.
func (r *Report) addGraph(s *schedule.Schedule, gs *schedule.GraphSched, lastUse []int, threads int, c *Coefficients) {
	g, live, start := gs.G, s.Live, s.Start
	// Last consumer stage per node, for pipeline-balancing registers.
	note := func(dep *ir.Node, at int) {
		lastUse[dep.ID] = max(lastUse[dep.ID], at)
	}
	for _, n := range g.Nodes {
		if !live[n.ID] {
			continue
		}
		for _, a := range n.Args {
			note(a, start[n.ID])
		}
		if n.Pred != nil {
			note(n.Pred, start[n.ID])
		}
	}

	for _, n := range g.Nodes {
		if !live[n.ID] {
			continue
		}
		lanes := n.Lanes
		if lanes < 1 {
			lanes = 1
		}
		switch n.Op {
		case ir.OpAdd, ir.OpSub:
			if n.Kind == ir.KindFloat || n.Kind == ir.KindVec {
				r.ALMs += c.FpAddALM * lanes
				r.Registers += c.FpAddReg * lanes
				r.DSPs += lanes
			} else {
				r.ALMs += c.IntAddALM
				r.Registers += c.IntAddReg
			}
		case ir.OpMul:
			if n.Kind == ir.KindFloat || n.Kind == ir.KindVec {
				r.ALMs += c.FpMulALM * lanes
				r.Registers += c.FpMulReg * lanes
				r.DSPs += lanes
			} else {
				r.ALMs += c.IntMulALM
				r.Registers += c.IntMulReg
				r.DSPs++
			}
		case ir.OpDiv, ir.OpRem:
			if n.Kind == ir.KindFloat || n.Kind == ir.KindVec {
				r.ALMs += c.FpDivALM * lanes
				r.Registers += c.FpDivReg * lanes
			} else {
				r.ALMs += c.IntDivALM
				r.Registers += c.IntDivReg
			}
		case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpEq, ir.OpNe:
			r.ALMs += c.CmpALM
		case ir.OpAnd, ir.OpOr, ir.OpNot, ir.OpSelect:
			r.ALMs += c.LogicALM * lanes
		case ir.OpIntToFloat, ir.OpFloatToInt:
			r.ALMs += c.ConvALM
			r.Registers += c.ConvReg
		case ir.OpSplat, ir.OpExtract, ir.OpInsert:
			r.ALMs += c.LaneALM * lanes
		case ir.OpLoad, ir.OpStore:
			r.ALMs += c.MemPortALM
			r.Registers += c.MemPortReg
		case ir.OpLock, ir.OpUnlock, ir.OpBarrier:
			r.ALMs += c.LockALM
		case ir.OpLoopOp:
			r.ALMs += c.LoopCtlALM
		}

		// Pipeline-balance registers: the value is carried from its ready
		// stage to its last consumer.
		if span := lastUse[n.ID] - (start[n.ID] + s.Lat[n.ID]); span > 0 {
			bits := 32 * lanes
			if n.Kind == ir.KindNone {
				bits = 0
			}
			r.Registers += (bits * span) / 8 // registers are retimed/shared
		}
	}

	// Controller.
	r.ALMs += gs.Depth * c.StageALM
	r.Registers += gs.Depth * c.StageReg
	// Reordering stages keep a context per thread: every live value
	// crossing the stage is buffered per thread.
	for si := range gs.Stages {
		if !gs.Stages[si].Reordering {
			continue
		}
		ctxBits := 0
		for _, n := range g.Nodes {
			if !live[n.ID] || n.Kind == ir.KindNone {
				continue
			}
			ready := start[n.ID] + s.Lat[n.ID]
			if ready <= si && lastUse[n.ID] > si {
				lanes := n.Lanes
				if lanes < 1 {
					lanes = 1
				}
				ctxBits += 32 * lanes
			}
		}
		r.ALMs += threads * c.ReorderALMPerThread
		r.Registers += ctxBits * threads / 4 // contexts largely map to MLABs
	}
}

// Overhead estimates the design with and without profiling.
func Overhead(k *ir.Kernel, s *schedule.Schedule, profCfg profile.Config) OverheadReport {
	off := profCfg
	off.Enabled = false
	on := profCfg
	on.Enabled = true
	return OverheadReport{
		Without: Estimate(k, s, off),
		With:    Estimate(k, s, on),
	}
}

// GeoMean returns the geometric mean of a percentage series (the paper
// reports geo-means over the five GEMM versions).
func GeoMean(pcts []float64) float64 {
	if len(pcts) == 0 {
		return 0
	}
	prod := 1.0
	for _, p := range pcts {
		if p <= 0 {
			p = 1e-9
		}
		prod *= p
	}
	return math.Pow(prod, 1/float64(len(pcts)))
}
