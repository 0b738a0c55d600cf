// Pi case study (paper §V-D): calls the MiniC pi() function end-to-end —
// the host interpreter computes `step`, launches the accelerator, reduces
// across threads through the hardware semaphore, and returns the estimate.
// Running it at increasing iteration counts reproduces Figs. 11-13: at
// small counts the sequential thread-start overhead dominates and threads
// barely overlap; at large counts all eight run in parallel and the
// sustained GFLOP/s rises accordingly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"strconv"
	"strings"

	"paravis/internal/core"
	"paravis/internal/host"
	"paravis/internal/paraver/analysis"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

func main() {
	stepsFlag := flag.String("steps", "100000,400000,1000000", "comma-separated iteration counts")
	traces := flag.String("traces", "", "if set, write Paraver bundles to this directory")
	flag.Parse()

	ctx := context.Background()
	prog, err := core.Build(ctx, workloads.PiSource, core.BuildOptions{Defines: workloads.PiDefines()})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== pi case study: infinite series on 8 hardware threads ==")
	fmt.Println("paper: 1M iters -> 0.146 GFLOP/s, 4M -> 0.556, 10M -> 1.507")
	fmt.Println()

	for _, f := range strings.Split(*stepsFlag, ",") {
		steps, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || steps <= 0 {
			log.Fatalf("bad steps %q", f)
		}
		// Call the MiniC function like the paper's host binary would.
		ret, out, err := prog.Call(ctx,
			[]host.Value{host.IntValue(int64(steps)), host.IntValue(8)},
			nil, sim.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		estimate := ret.AsFloat() / float64(steps)
		r := out.Result
		stats := analysis.NewStreamStats(88, 0)
		if err := out.Streams.Scan(stats); err != nil {
			log.Fatal(err)
		}
		gflops := stats.GFlops(out.FmaxMHz)
		fmt.Printf("steps=%-9d pi=%.6f (err %.2e)  %d cycles  %.3f GFLOP/s\n",
			steps, estimate, math.Abs(estimate-math.Pi), r.Cycles, gflops)
		fmt.Println("  thread activity (R=Running C=Critical S=Spinning .=Idle):")
		for _, row := range stats.TimelineTask(0) {
			fmt.Println("    " + row)
		}
		if *traces != "" {
			prv, err := out.WriteTrace(*traces, fmt.Sprintf("pi_%d", steps))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote %s\n", prv)
		}
		fmt.Println()
	}
}
