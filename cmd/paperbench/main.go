// Command paperbench regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured comparisons.
//
// Usage:
//
//	paperbench [-exp all|overhead|fig6|fig7|speedup|fig8|fig9|pi|threads|bounds|depend|optimize]
//	           [-dim N] [-pisteps a,b,c] [-quiet] [-j N] [-optbudget N]
//
// -exp bounds runs the static-bounds cross-validation (E10); -exp
// depend runs the dependence-engine cross-validation (E12: static
// RecMII and dependence verdicts against the simulator's measured
// per-loop initiation intervals); -exp optimize runs the
// transformation-search study (E13: the autotuner rediscovering the
// §V-C ladder from the naive GEMM, tabulated against the hand-written
// versions, with -optbudget capping the simulator confirmations).
// None of the three is part of -exp all so the default output stays
// byte-identical across releases. An unknown -exp prints the usage and
// exits 2. Timing lives in benchmark/, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"paravis/internal/experiments"
	"paravis/internal/parallel"
)

// experimentNames lists every -exp value.
var experimentNames = []string{"all", "overhead", "fig6", "fig7", "speedup", "fig8", "fig9", "pi", "threads", "bounds", "depend", "optimize"}

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames, ", "))
	dim := flag.Int("dim", 64, "GEMM matrix dimension (multiple of 16)")
	piSteps := flag.String("pisteps", "102400,409600,1024000", "comma-separated pi iteration counts")
	quiet := flag.Bool("quiet", false, "suppress ASCII timeline/sparkline views")
	workers := flag.Int("j", 0, "max design points simulated concurrently (0 = GOMAXPROCS)")
	optBudget := flag.Int("optbudget", 32, "simulator-confirmation budget for -exp optimize")
	flag.Parse()
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(os.Stderr, "paperbench: unknown -exp %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *workers > 0 {
		parallel.SetDefaultWorkers(*workers)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := experiments.DefaultOptions()
	opts.GEMMDim = *dim
	opts.Quiet = *quiet
	opts.Workers = *workers
	opts.PiSteps = nil
	for _, f := range strings.Split(*piSteps, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad -pisteps entry %q", f))
		}
		opts.PiSteps = append(opts.PiSteps, n)
	}

	// run executes one experiment and prints its formatted report.
	run := func(name string, fn func(o experiments.Options) (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		out, err := fn(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		fmt.Println()
	}

	run("overhead", func(o experiments.Options) (string, error) {
		r, err := experiments.RunOverhead(ctx, o.Workers)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("fig6", func(o experiments.Options) (string, error) {
		r, err := experiments.RunFig6(ctx, o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	speedups := func(o experiments.Options) (string, error) {
		r, err := experiments.RunSpeedups(ctx, o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}
	switch *exp {
	case "all", "speedup":
		run("speedup", speedups)
	case "fig7":
		run("fig7", speedups)
	}
	phases := func(o experiments.Options) (string, error) {
		r, err := experiments.RunPhases(ctx, o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}
	run("fig8", phases)
	if *exp == "fig9" {
		run("fig9", phases)
	}
	run("pi", func(o experiments.Options) (string, error) {
		r, err := experiments.RunPi(ctx, o)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("threads", func(o experiments.Options) (string, error) {
		r, err := experiments.RunThreadScaling(ctx, o, []int{1, 2, 4, 8, 12, 16})
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	// The bounds cross-validation is opt-in only: keeping it out of
	// "-exp all" keeps the default trace byte-identical to the seed.
	if *exp == "bounds" {
		run("bounds", func(o experiments.Options) (string, error) {
			r, err := experiments.RunBounds(ctx, o)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})
	}
	// The dependence cross-validation (E12) is opt-in for the same
	// reason as bounds: the default trace stays byte-identical.
	if *exp == "depend" {
		run("depend", func(o experiments.Options) (string, error) {
			r, err := experiments.RunDepend(ctx, o)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})
	}
	// The transformation-search study (E13) is opt-in like bounds.
	if *exp == "optimize" {
		run("optimize", func(o experiments.Options) (string, error) {
			r, err := experiments.RunOptimize(ctx, o, *optBudget)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		})
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
