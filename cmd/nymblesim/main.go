// Command nymblesim compiles a MiniC+OpenMP kernel, simulates it on the
// cycle-level Nymble-MT accelerator model with the profiling unit attached,
// writes the Paraver trace bundle (.prv/.pcf/.row) and prints a run
// summary. Ctrl-C cancels the simulation cleanly through the engine's
// context support.
//
// Arguments are passed as name=value pairs; pointer parameters get
// zero-filled buffers whose sizes come from the map clauses (use
// name=@file.f32 to load raw little-endian float32 data).
//
// With -sweep NAME=v1,v2,... the kernel is compiled and simulated once per
// value of the macro NAME (design points run concurrently, bounded by -j)
// and a comparison table is printed instead of the single-run summary.
//
// Usage:
//
//	nymblesim [-D NAME=VALUE]... [-json] [-o dir] [-name base] [-noprofile]
//	          [-gzip] [-j N] [-sweep NAME=v1,v2,...] file.mc arg=value...
//
// -json replaces the text summary with the versioned run-summary
// document (internal/api.StoredRun) — the same bytes nymbled persists
// as a run job's summary.json — while still writing the trace bundle.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"paravis/internal/advisor"
	"paravis/internal/api"
	"paravis/internal/cli"
	"paravis/internal/core"
	"paravis/internal/parallel"
	"paravis/internal/paraver/analysis"
	"paravis/internal/sim"
)

func main() {
	defines := cli.Defines{}
	flag.Var(defines, "D", "macro definition NAME=VALUE (repeatable)")
	outDir := flag.String("o", "traces", "output directory for the Paraver bundle")
	base := flag.String("name", "", "trace base name (default: kernel name)")
	asJSON := flag.Bool("json", false, "emit the run summary as JSON")
	noProfile := flag.Bool("noprofile", false, "disable the profiling unit")
	gz := flag.Bool("gzip", false, "gzip-compress the trace body (trace.prv.gz)")
	sweep := flag.String("sweep", "", "sweep a macro: NAME=v1,v2,... (one design point per value)")
	workers := flag.Int("j", 0, "max design points simulated concurrently (0 = GOMAXPROCS)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: nymblesim [-D N=V] [-json] [-o dir] [-name base] [-noprofile] [-gzip] [-j N] [-sweep NAME=v1,v2,...] file.mc arg=value...")
		os.Exit(2)
	}
	if *workers > 0 {
		parallel.SetDefaultWorkers(*workers)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)

	ints, floats, bufFiles, err := cli.ParseArgs(flag.Args()[1:])
	if err != nil {
		fatal(err)
	}

	if *sweep != "" {
		if err := runSweep(ctx, src, defines, *sweep, *workers, ints, floats, bufFiles, *noProfile); err != nil {
			fatal(err)
		}
		return
	}

	p, err := core.Build(ctx, src, core.BuildOptions{Defines: defines})
	if err != nil {
		fatal(err)
	}
	args, err := cli.MakeArgs(p, ints, floats, bufFiles)
	if err != nil {
		fatal(err)
	}

	cfg := sim.DefaultConfig()
	cfg.Profile.Enabled = !*noProfile
	out, err := p.Run(ctx, args, cfg)
	if err != nil {
		fatal(err)
	}

	summary, err := api.NewRunSummary(p, out)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		// The same versioned document nymbled persists as summary.json
		// (and serves inside the job body), byte for byte; the trace list
		// names the daemon's downloadable bundle files.
		doc := api.StoredRun{
			SchemaVersion: api.Version,
			Kernel:        p.Kernel.Name,
			Summary:       summary,
		}
		if out.Streams != nil {
			doc.Trace = []string{"trace.prv", "trace.prv.gz", "trace.pcf", "trace.row"}
		}
		if err := api.Encode(os.Stdout, doc); err != nil {
			fatal(err)
		}
		if out.Streams != nil {
			name := *base
			if name == "" {
				name = p.Kernel.Name
			}
			write := out.WriteTrace
			if *gz {
				write = out.WriteTraceGz
			}
			if _, err := write(*outDir, name); err != nil {
				fatal(err)
			}
		}
		return
	}

	r := out.Result
	fmt.Printf("kernel %s: %d cycles (%.3f ms at %.0f MHz), %d threads\n",
		p.Kernel.Name, r.Cycles, 1e3*out.Seconds(r.Cycles), out.FmaxMHz, p.Kernel.NumThreads)
	fmt.Printf("stalls: %d, FLOPs: %d, lock acquisitions: %d (contended %d)\n",
		r.TotalStalls(), r.TotalFpOps(), r.LockAcquisitions, r.LockContended)
	printStallHotspots(os.Stdout, r.StallsByLoop, r.TotalStalls())
	fmt.Printf("DRAM: %d transactions, %d B read, %d B written\n",
		r.DRAM.Transactions, r.DRAM.ReadWordsMoved*4, r.DRAM.WriteWordsMoved*4)
	printResults(os.Stdout, r.ScalarsOut, r.ScalarsOutInt)
	if out.Streams != nil {
		bw := summary.BWBytesPerCycle
		fmt.Printf("avg external bandwidth: %.3f B/cycle (%.2f GB/s)\n",
			bw, analysis.BandwidthGBs(bw, out.FmaxMHz))
		fmt.Printf("sustained compute: %.3f GFLOP/s\n", summary.GFlops)
		name := *base
		if name == "" {
			name = p.Kernel.Name
		}
		write := out.WriteTrace
		if *gz {
			write = out.WriteTraceGz
		}
		prv, err := write(*outDir, name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (+ .pcf/.row)\n", prv)
		fmt.Println("\nadvisor findings:")
		fmt.Print(advisor.Format(advisor.AdviseProgram(p, out, advisor.Thresholds{})))
	}
}

// runSweep compiles and simulates the kernel once per value of the swept
// macro. Design points are independent, so they run concurrently; the table
// is printed in the order the values were given.
func runSweep(ctx context.Context, src string, defines cli.Defines, spec string, workers int,
	ints map[string]int64, floats map[string]float64, bufFiles map[string]string, noProfile bool) error {
	name, list, found := strings.Cut(spec, "=")
	if !found || list == "" {
		return fmt.Errorf("-sweep wants NAME=v1,v2,..., got %q", spec)
	}
	vals := strings.Split(list, ",")

	type point struct {
		cycles  int64
		stalls  int64
		threads int
		bw      float64
		gflops  float64
		fmax    float64
	}
	pts := make([]point, len(vals))
	err := parallel.ForEach(workers, len(vals), func(i int) error {
		defs := cli.Defines{}
		for k, v := range defines {
			defs[k] = v
		}
		defs[name] = vals[i]
		p, err := core.Build(ctx, src, core.BuildOptions{Defines: defs})
		if err != nil {
			return fmt.Errorf("%s=%s: %w", name, vals[i], err)
		}
		args, err := cli.MakeArgs(p, ints, floats, bufFiles)
		if err != nil {
			return fmt.Errorf("%s=%s: %w", name, vals[i], err)
		}
		cfg := sim.DefaultConfig()
		cfg.Profile.Enabled = !noProfile
		out, err := p.Run(ctx, args, cfg)
		if err != nil {
			return fmt.Errorf("%s=%s: %w", name, vals[i], err)
		}
		summary, err := api.NewRunSummary(p, out)
		if err != nil {
			return fmt.Errorf("%s=%s: %w", name, vals[i], err)
		}
		pts[i] = point{
			cycles:  out.Result.Cycles,
			stalls:  out.Result.TotalStalls(),
			threads: p.Kernel.NumThreads,
			bw:      summary.BWBytesPerCycle,
			gflops:  summary.GFlops,
			fmax:    out.FmaxMHz,
		}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("sweep %s over %d values (%d workers)\n",
		name, len(vals), parallel.Resolve(workers))
	fmt.Printf("%-12s %10s %12s %12s %8s %10s %9s\n",
		name, "threads", "cycles", "stalls", "speedup", "BW B/cyc", "GFLOP/s")
	base := pts[0].cycles
	for i, v := range vals {
		sp := float64(base) / float64(pts[i].cycles)
		fmt.Printf("%-12s %10d %12d %12d %7.2fx %10.3f %9.3f\n",
			v, pts[i].threads, pts[i].cycles, pts[i].stalls, sp, pts[i].bw, pts[i].gflops)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nymblesim:", err)
	os.Exit(1)
}

// printResults lists the scalars the kernel wrote back, floats then ints,
// each group in name order so the output does not depend on map iteration.
func printResults(w io.Writer, floats map[string]float64, ints map[string]int64) {
	for _, name := range sortedKeys(floats) {
		fmt.Fprintf(w, "result %s = %g\n", name, floats[name])
	}
	for _, name := range sortedKeys(ints) {
		fmt.Fprintf(w, "result %s = %d\n", name, ints[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printStallHotspots lists the loops that stalled, most stall cycles
// first; loops with equal counts are ordered by name so the table does not
// depend on map iteration.
func printStallHotspots(w io.Writer, byLoop map[string]int64, total int64) {
	if len(byLoop) == 0 {
		return
	}
	fmt.Fprintln(w, "stall hotspots by source loop:")
	names := make([]string, 0, len(byLoop))
	for name := range byLoop {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if byLoop[names[i]] != byLoop[names[j]] {
			return byLoop[names[i]] > byLoop[names[j]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Fprintf(w, "  %-20s %12d stall cycles (%.1f%%)\n",
			name, byLoop[name], 100*float64(byLoop[name])/float64(total))
	}
}
