// Quickstart: compile a small OpenMP-offload kernel with the HLS flow, run
// it on the cycle-level accelerator model with the profiling unit attached,
// check the result, and write a Paraver trace you could open in the real
// Paraver GUI.
package main

import (
	"context"
	"fmt"
	"log"

	"paravis/internal/core"
	"paravis/internal/paraver/analysis"
	"paravis/internal/sim"
)

// A SAXPY kernel: the four hardware threads split the vector statically.
const src = `
void saxpy(float* X, float* Y, float a, int n) {
  #pragma omp target parallel map(to:X[0:n]) map(tofrom:Y[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      Y[i] = a * X[i] + Y[i];
    }
  }
}
`

func main() {
	// 1. Compile: parse -> lower to dataflow IR -> schedule -> datapath.
	ctx := context.Background()
	prog, err := core.Build(ctx, src, core.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled kernel %q: %d hardware threads, %d dataflow graphs\n",
		prog.Kernel.Name, prog.Kernel.NumThreads, len(prog.Kernel.CollectGraphs()))

	// 2. Prepare host data.
	n := 256
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = float32(i)
		y[i] = 1
	}
	xb, yb := sim.NewFloatBuffer(x), sim.NewFloatBuffer(y)

	// 3. Run on the simulated accelerator.
	out, err := prog.Run(ctx, sim.Args{
		Floats:  map[string]float64{"a": 2},
		Ints:    map[string]int64{"n": int64(n)},
		Buffers: map[string]*sim.Buffer{"X": xb, "Y": yb},
	}, sim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 4. Check results (the simulator is functional, not just timed).
	got := yb.Floats()
	for i := range got {
		want := 2*float32(i) + 1
		if got[i] != want {
			log.Fatalf("Y[%d] = %v, want %v", i, got[i], want)
		}
	}
	fmt.Printf("result verified: Y = 2*X + Y for all %d elements\n", n)

	// 5. Inspect performance the way the paper does.
	r := out.Result
	fmt.Printf("execution: %d cycles (%.1f us at %.0f MHz), %d pipeline stalls\n",
		r.Cycles, 1e6*out.Seconds(r.Cycles), out.FmaxMHz, r.TotalStalls())
	stats := analysis.NewStreamStats(72, 0)
	if err := out.Streams.Scan(stats); err != nil {
		log.Fatal(err)
	}
	bw := stats.AvgBandwidthBytesPerCycle()
	fmt.Printf("memory: %.3f B/cycle (%.2f GB/s)\n", bw, analysis.BandwidthGBs(bw, out.FmaxMHz))
	fmt.Println("state timeline (R=Running .=Idle):")
	for _, row := range stats.Timeline() {
		fmt.Println("  " + row)
	}

	// 6. Write the Paraver bundle.
	prv, err := out.WriteTrace("traces", "saxpy")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Paraver trace written to %s (+ .pcf/.row)\n", prv)
}
