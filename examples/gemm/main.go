// GEMM case study (paper §V-C): runs the five optimization stages of the
// matrix multiplication — naive with a critical section, lock-free work
// distribution, partially vectorized, BRAM-blocked, and double-buffered —
// and prints the analyses the paper reads off the Paraver views: state
// residency (Fig. 6), memory throughput over time (Fig. 7), the
// load/compute phase structure (Figs. 8-9) and the speedup table.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"paravis/internal/advisor"
	"paravis/internal/experiments"
)

func main() {
	dim := flag.Int("dim", 64, "matrix dimension (multiple of 16)")
	traces := flag.String("traces", "", "if set, write Paraver bundles to this directory")
	flag.Parse()

	opts := experiments.DefaultOptions()
	opts.GEMMDim = *dim

	fmt.Printf("== GEMM case study, %dx%d matrices, 8 hardware threads ==\n\n", *dim, *dim)

	ctx := context.Background()
	fig6, err := experiments.RunFig6(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig6.Format())
	fmt.Println()

	speed, err := experiments.RunSpeedups(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(speed.Format())
	fmt.Println()

	phases, err := experiments.RunPhases(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(phases.Format())

	fmt.Println("\n== advisor: what the profile suggests for each version ==")
	for _, run := range speed.Runs {
		top := advisor.Top(advisor.AdviseProgram(run.Program, run.Out))
		fmt.Printf("%-22s -> [%s] %s\n", run.Version, top.Severity, top.Kind)
		fmt.Printf("%-22s    %s\n", "", top.Action())
	}

	if *traces != "" {
		for _, run := range speed.Runs {
			name := fmt.Sprintf("gemm_v%d", int(run.Version)+1)
			prv, err := run.Out.WriteTrace(*traces, name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (%s)\n", prv, run.Version)
		}
	}
}
