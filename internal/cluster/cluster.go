// Package cluster implements the paper's stated future work: "we plan to
// extend our infrastructure for communication between FPGAs in a
// multi-FPGA setup". It runs one accelerator instance per simulated FPGA
// on a partition of a 1-D stencil (Jacobi heat smoothing), exchanges halo
// cells between neighboring FPGAs over a modeled link after every sweep,
// and produces a single multi-task Paraver trace: each FPGA is a task,
// every halo transfer a communication record, so the inter-FPGA traffic is
// visible in the same tool as the intra-FPGA execution.
//
// The host orchestrates lockstep sweeps (launch all FPGAs, wait, exchange,
// repeat), matching the OmpSs-style host-driven offload the paper cites as
// the multi-FPGA baseline.
package cluster

import (
	"context"
	"fmt"

	"paravis/internal/core"
	"paravis/internal/parallel"
	"paravis/internal/paraver"
	"paravis/internal/profile"
	"paravis/internal/sim"
)

// StencilSource is the per-FPGA kernel: one Jacobi sweep over the local
// chunk. U holds n interior cells plus one halo cell at each end; V
// receives the smoothed interior.
const StencilSource = `
#define NT 4

void stencil(float* U, float* V, int n) {
  #pragma omp target parallel map(to:U[0:n+2]) map(from:V[0:n+2]) num_threads(NT)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id + 1; i <= n; i += nt) {
      V[i] = 0.25f*U[i-1] + 0.5f*U[i] + 0.25f*U[i+1];
    }
  }
}
`

// Config configures the multi-FPGA run.
type Config struct {
	// FPGAs is the number of accelerator instances (tasks in the trace).
	FPGAs int
	// LinkLatency is the FPGA-to-FPGA transfer latency in cycles.
	LinkLatency int64
	// LinkBytesPerCycle is the serial link bandwidth.
	LinkBytesPerCycle float64
	// Workers bounds how many FPGA instances simulate concurrently within
	// one lockstep sweep (0 = GOMAXPROCS). Halos are exchanged between
	// sweeps and results are merged in FPGA order, so the output does not
	// depend on the worker count.
	Workers int
	// Cache, when set, compiles the stencil kernel through a shared
	// content-addressed compile cache (e.g. the nymbled daemon's), so
	// repeated cluster runs reuse one compile instead of rebuilding per
	// call. Compiled programs are immutable, so sharing is safe.
	Cache *core.Cache
	// Sim configures each accelerator instance.
	Sim sim.Config
}

// DefaultConfig models a small ring of boards with a serial link.
func DefaultConfig() Config {
	cfg := sim.DefaultConfig()
	cfg.ThreadStart = 2000
	cfg.MaxCycles = 2_000_000_000
	return Config{
		FPGAs:             2,
		LinkLatency:       500,
		LinkBytesPerCycle: 4,
		Sim:               cfg,
	}
}

// Result reports the cluster run.
type Result struct {
	Cells, Steps, FPGAs int
	// TotalCycles is the global makespan (compute + exchanges).
	TotalCycles int64
	// ComputeCycles / ExchangeCycles split the critical path.
	ComputeCycles  int64
	ExchangeCycles int64
	// PerStep records each sweep's global duration.
	PerStep []int64
	// Streams is the merged multi-task Paraver trace with comm records;
	// bundles write from it and Streams.Scan feeds the analyses.
	Streams *paraver.StreamTrace
	// Final holds the smoothed field after all sweeps.
	Final []float32
	// HaloTransfers counts FPGA-to-FPGA messages.
	HaloTransfers int
}

// Reference computes the same smoothing on the host (fixed boundary
// cells), for verification.
func Reference(initial []float32, steps int) []float32 {
	n := len(initial)
	cur := append([]float32(nil), initial...)
	next := make([]float32, n)
	for s := 0; s < steps; s++ {
		next[0] = cur[0]
		next[n-1] = cur[n-1]
		for i := 1; i < n-1; i++ {
			next[i] = 0.25*cur[i-1] + 0.5*cur[i] + 0.25*cur[i+1]
		}
		cur, next = next, cur
	}
	return cur
}

// RunStencil partitions `initial` across cfg.FPGAs accelerators and runs
// `steps` lockstep Jacobi sweeps with halo exchanges in between.
func RunStencil(ctx context.Context, initial []float32, steps int, cfg Config) (*Result, error) {
	cells := len(initial)
	if cfg.FPGAs < 1 {
		return nil, fmt.Errorf("cluster: need at least one FPGA")
	}
	if cells%cfg.FPGAs != 0 {
		return nil, fmt.Errorf("cluster: %d cells not divisible by %d FPGAs", cells, cfg.FPGAs)
	}
	chunk := cells / cfg.FPGAs
	if chunk < 2 {
		return nil, fmt.Errorf("cluster: chunk of %d cells too small", chunk)
	}

	var prog *core.Program
	var err error
	if cfg.Cache != nil {
		prog, _, err = cfg.Cache.Build(ctx, StencilSource, core.BuildOptions{})
	} else {
		prog, err = core.Build(ctx, StencilSource, core.BuildOptions{})
	}
	if err != nil {
		return nil, err
	}

	// Local fields with halos: field[f][0] and field[f][chunk+1].
	field := make([][]float32, cfg.FPGAs)
	for f := range field {
		field[f] = make([]float32, chunk+2)
		copy(field[f][1:], initial[f*chunk:(f+1)*chunk])
	}
	syncHalos := func() {
		for f := 0; f < cfg.FPGAs; f++ {
			if f > 0 {
				field[f][0] = field[f-1][chunk]
			} else {
				field[f][0] = field[0][1] // fixed boundary: mirror edge
			}
			if f < cfg.FPGAs-1 {
				field[f][chunk+1] = field[f+1][1]
			} else {
				field[f][chunk+1] = field[f][chunk]
			}
		}
	}

	nThreads := prog.Kernel.NumThreads
	merged := paraver.NewStreamTrace("stencil-cluster", cfg.FPGAs, nThreads)
	res := &Result{Cells: cells, Steps: steps, FPGAs: cfg.FPGAs}

	globalTime := int64(0)
	msgBytes := int64(4) // one float32 halo cell per direction
	linkCycles := cfg.LinkLatency + int64(float64(msgBytes)/cfg.LinkBytesPerCycle)

	// sweepOut collects one FPGA's results so the lockstep sweeps can
	// simulate every instance concurrently and still merge deterministically
	// in FPGA order afterwards.
	type sweepOut struct {
		v      []float32
		cycles int64
		prof   *profile.Unit
	}
	outs := make([]sweepOut, cfg.FPGAs)

	for s := 0; s < steps; s++ {
		syncHalos()
		stepStart := globalTime
		var stepMax int64
		ends := make([]int64, cfg.FPGAs)
		err := parallel.ForEach(cfg.Workers, cfg.FPGAs, func(f int) error {
			// Boundary handling: edges keep their value. We feed the edge
			// FPGAs mirrored halos so the smoothed edge matches the
			// reference's fixed-boundary behaviour approximately; exact
			// fixed boundaries are restored below.
			ubuf := sim.NewFloatBuffer(field[f])
			vbuf := sim.NewZeroBuffer(chunk + 2)
			out, err := prog.Run(ctx, sim.Args{
				Ints:    map[string]int64{"n": int64(chunk)},
				Buffers: map[string]*sim.Buffer{"U": ubuf, "V": vbuf},
			}, cfg.Sim)
			if err != nil {
				return fmt.Errorf("cluster: fpga %d sweep %d: %w", f, s, err)
			}
			outs[f] = sweepOut{v: vbuf.Floats(), cycles: out.Result.Cycles, prof: out.Result.Prof}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for f := 0; f < cfg.FPGAs; f++ {
			copy(field[f][1:chunk+1], outs[f].v[1:chunk+1])
			ends[f] = stepStart + outs[f].cycles
			if outs[f].cycles > stepMax {
				stepMax = outs[f].cycles
			}
		}
		// Fold this sweep's per-FPGA record streams into the merged trace.
		// Each task's streams are disjoint, so the fold fans out across the
		// worker pool; the result is independent of the worker count.
		if err := parallel.ForEach(cfg.Workers, cfg.FPGAs, func(f int) error {
			if outs[f].prof != nil {
				merged.AppendProfile(f, outs[f].prof, stepStart, outs[f].cycles)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for f := 0; f < cfg.FPGAs; f++ {
			outs[f] = sweepOut{}
		}
		// Fixed global boundaries.
		field[0][1] = initial[0]
		field[cfg.FPGAs-1][chunk] = initial[cells-1]

		// Halo exchange between neighbors: each FPGA sends its edge cell
		// as soon as it finishes; the step completes when every halo has
		// landed.
		exchangeEnd := stepStart + stepMax
		for f := 0; f+1 < cfg.FPGAs; f++ {
			sendR := ends[f]
			recvR := maxI64(sendR+linkCycles, ends[f+1])
			merged.Comms = append(merged.Comms, paraver.CommRec{
				SendTask: f, SendThread: 0, RecvTask: f + 1, RecvThread: 0,
				SendTime: sendR, RecvTime: recvR, Size: msgBytes, Tag: int64(s),
			})
			sendL := ends[f+1]
			recvL := maxI64(sendL+linkCycles, ends[f])
			merged.Comms = append(merged.Comms, paraver.CommRec{
				SendTask: f + 1, SendThread: 0, RecvTask: f, RecvThread: 0,
				SendTime: sendL, RecvTime: recvL, Size: msgBytes, Tag: int64(s),
			})
			res.HaloTransfers += 2
			if recvR > exchangeEnd {
				exchangeEnd = recvR
			}
			if recvL > exchangeEnd {
				exchangeEnd = recvL
			}
		}
		res.ComputeCycles += stepMax
		res.ExchangeCycles += exchangeEnd - (stepStart + stepMax)
		res.PerStep = append(res.PerStep, exchangeEnd-stepStart)
		globalTime = exchangeEnd
	}

	res.TotalCycles = globalTime
	if merged.EndTime < globalTime {
		merged.EndTime = globalTime
	}
	paraver.SortCommRecs(merged.Comms)
	res.Streams = merged
	if err := merged.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: merged trace invalid: %w", err)
	}

	res.Final = make([]float32, cells)
	for f := 0; f < cfg.FPGAs; f++ {
		copy(res.Final[f*chunk:], field[f][1:chunk+1])
	}
	return res, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
