// Package sim is the cycle-level engine that executes a compiled
// accelerator (internal/hw) against the memory system (internal/mem), the
// hardware semaphore (internal/hwsem) and the profiling unit
// (internal/profile). It implements the paper's Nymble-MT execution model:
// execution is orchestrated at the granularity of pipeline stages; a stage
// whose variable-latency operation has not completed stalls its thread;
// stages containing VLOs are reordering stages where the hardware thread
// scheduler lets faster threads overtake; inner loops suspend the outer
// graph of the owning thread. The host model reproduces OpenMP offload
// behaviour: map-clause transfers and sequential thread starts with a
// per-thread software overhead.
package sim

import (
	"context"
	"fmt"

	"paravis/internal/hw"
	"paravis/internal/mem"
	"paravis/internal/profile"
)

// Config configures a simulation run.
type Config struct {
	DRAM        mem.DRAMConfig
	BRAMLatency int
	// SpinRetry is the semaphore poll interval in cycles (bus round trip).
	SpinRetry int
	// ThreadStart is the software overhead, in cycles, between consecutive
	// thread starts (the host writes each context over the slave
	// interface). It causes the staggered starts of Figs. 11-13.
	ThreadStart int64
	// Profile configures the profiling unit. Profile.Enabled=false gives
	// the "without profiling" baseline.
	Profile profile.Config
	// MaxCycles aborts runaway simulations (0 = 4e9).
	MaxCycles int64
}

// DefaultConfig returns the configuration used by the paper-reproduction
// experiments.
func DefaultConfig() Config {
	return Config{
		DRAM:        mem.DefaultDRAMConfig(),
		BRAMLatency: 2,
		SpinRetry:   6,
		ThreadStart: 25000,
		Profile:     profile.DefaultConfig(),
		MaxCycles:   0,
	}
}

// Args carries kernel launch arguments: scalar values by parameter name and
// host buffers for pointer parameters. Buffers are written back for
// from/tofrom maps.
type Args struct {
	Ints    map[string]int64
	Floats  map[string]float64
	Buffers map[string]*Buffer
}

// Buffer is a host-side data buffer in 32-bit words.
type Buffer struct {
	Words []uint32
}

// NewFloatBuffer wraps float32 data.
func NewFloatBuffer(fs []float32) *Buffer { return &Buffer{Words: mem.FloatsToWords(fs)} }

// NewIntBuffer wraps int32 data.
func NewIntBuffer(is []int32) *Buffer { return &Buffer{Words: mem.IntsToWords(is)} }

// NewZeroBuffer allocates an n-word zero buffer.
func NewZeroBuffer(n int) *Buffer { return &Buffer{Words: make([]uint32, n)} }

// Floats views the buffer as float32 data.
func (b *Buffer) Floats() []float32 { return mem.WordsToFloats(b.Words) }

// Ints views the buffer as int32 data.
func (b *Buffer) Ints() []int32 { return mem.WordsToInts(b.Words) }

// Result reports a completed run.
type Result struct {
	// Cycles is the accelerator execution time: the cycle at which the
	// last thread finished (thread starts are staggered by the host).
	Cycles int64
	// ThreadStart / ThreadEnd are per-thread activity windows.
	ThreadStart []int64
	ThreadEnd   []int64
	// Stalls / IntOps / FpOps are per-thread lifetime totals (FpOps counts
	// FP lane-operations, i.e. FLOPs).
	Stalls []int64
	IntOps []int64
	FpOps  []int64
	// ScalarsOut holds final values of from/tofrom-mapped scalars.
	ScalarsOut    map[string]float64
	ScalarsOutInt map[string]int64

	DRAM mem.DRAMStats
	// BRAMWordsMoved / BRAMPortStalls aggregate local-memory activity
	// across all threads' BRAMs.
	BRAMWordsMoved int64
	BRAMPortStalls int64
	// Prof is the profiling unit with its recorded trace (nil when
	// profiling is disabled).
	Prof *profile.Unit

	// TransferToDevBytes / TransferFromDevBytes are the map-clause
	// transfer volumes; TransferCycles is their modeled cost (not included
	// in Cycles, as the paper reports kernel execution time).
	TransferToDevBytes   int64
	TransferFromDevBytes int64
	TransferCycles       int64

	// LockAcquisitions / LockContended summarize semaphore activity.
	LockAcquisitions int64
	LockContended    int64

	// StallsByLoop attributes stall cycles to the loop (graph) a token was
	// stalled in; keys carry the source position (e.g. "for@12:5"). It is
	// the data behind the hotspot report.
	StallsByLoop map[string]int64

	// ItersByLoop counts iteration starts per loop graph (all threads and
	// executions summed), ExecsByLoop completed loop executions (one
	// frame entry to retirement), and ActiveByLoop the cycles a frame of
	// that loop was live. ActiveByLoop/ItersByLoop is the measured
	// initiation interval the static RecMII floor brackets from below
	// (the floor separates consecutive iterations of one execution, so
	// only Iters-Execs pairs are constrained). Keys are loop names
	// ("for@line:col"); recorded whether or not profiling is enabled.
	ItersByLoop  map[string]int64
	ExecsByLoop  map[string]int64
	ActiveByLoop map[string]int64

	// Steps .. Jumps count the scheduler's own work, deterministically, so
	// a test can tell an engine that steps only what is due from one that
	// polls: Steps is stepFrame calls and FailedSteps those that changed no
	// state (a stage a coasting frame passes without a step is not one);
	// FrameVisits is frames the per-thread walks examined (they see ready
	// frames only, so it equals Steps) and ThreadVisits the walks; Jumps is
	// fast-forwards over idle cycles. They describe the simulator, not the
	// simulated hardware, and appear in no summary or report.
	Steps, FailedSteps, FrameVisits, ThreadVisits, Jumps int64
}

// TotalFpOps sums FLOPs across threads.
func (r *Result) TotalFpOps() int64 {
	var s int64
	for _, v := range r.FpOps {
		s += v
	}
	return s
}

// TotalStalls sums stall cycles across threads.
func (r *Result) TotalStalls() int64 {
	var s int64
	for _, v := range r.Stalls {
		s += v
	}
	return s
}

// Run executes the kernel to completion. The context is checked inside
// the event loop: cancelling it (or letting its deadline pass) stops the
// simulation with an *ErrCanceled, composing with the MaxCycles budget
// (whichever trips first wins). ctx may be nil, meaning Background.
func Run(ctx context.Context, ck *hw.CKernel, args Args, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e, err := newEngine(ck, args, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	return e.finish()
}

// validateArgs checks that every kernel parameter is supplied.
func validateArgs(ck *hw.CKernel, args Args) error {
	for _, p := range ck.K.Params {
		if p.Pointer {
			continue // buffers checked during map setup
		}
		if p.Float {
			if _, ok := args.Floats[p.Name]; !ok {
				return fmt.Errorf("sim: missing float argument %q", p.Name)
			}
		} else {
			if _, ok := args.Ints[p.Name]; !ok {
				return fmt.Errorf("sim: missing int argument %q", p.Name)
			}
		}
	}
	return nil
}
