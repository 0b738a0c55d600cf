// Pi case study (paper §V-D): runs E8, the pi experiment paperbench's
// `-exp pi` runs, at the given iteration counts (by default E8's, one
// tenth of the paper's 1M/4M/10M). At small counts the sequential
// thread-start overhead dominates and threads barely overlap; at large
// counts all eight run in parallel and the sustained GFLOP/s rises
// accordingly (Figs. 11-13). Exits non-zero when a run's estimate of pi
// is wrong.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"paravis/internal/experiments"
)

func main() {
	stepsFlag := flag.String("steps", "102400,409600,1024000", "comma-separated iteration counts")
	traces := flag.String("traces", "", "if set, write Paraver bundles to this directory")
	flag.Parse()

	opts := experiments.DefaultOptions()
	opts.PiSteps = nil
	for _, f := range strings.Split(*stepsFlag, ",") {
		steps, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || steps <= 0 {
			log.Fatalf("bad steps %q", f)
		}
		opts.PiSteps = append(opts.PiSteps, steps)
	}

	fmt.Println("== pi case study: infinite series on 8 hardware threads ==")
	fmt.Println()

	res, err := experiments.RunPi(context.Background(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())

	for _, run := range res.Runs {
		if *traces != "" {
			prv, err := run.Out.WriteTrace(*traces, fmt.Sprintf("pi_%d", run.Steps))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", prv)
		}
		if !run.Correct {
			log.Fatalf("steps=%d: pi estimate %v is wrong",
				run.Steps, run.Out.Result.ScalarsOut["final_sum"]/float64(run.Steps))
		}
	}
}
