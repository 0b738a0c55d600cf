// Command prv2stats parses a Paraver .prv trace and prints the data behind
// the views the paper uses: per-thread state residency (the state view),
// memory throughput over time, and compute performance over time.
//
// The trace streams through a single-pass aggregator line by line, so
// traces larger than RAM work in bounded memory. Gzip-compressed traces
// (.prv.gz, as written by nymblesim -gzip) decompress transparently.
//
// Usage:
//
//	prv2stats [-bins N] [-freq MHz] [-timeline] trace.prv[.gz]
package main

import (
	"flag"
	"fmt"
	"os"

	"paravis/internal/paraver"
	"paravis/internal/paraver/analysis"
)

func main() {
	bins := flag.Int("bins", 64, "number of time bins for event series")
	freq := flag.Float64("freq", 140, "accelerator clock in MHz for GB/s / GFLOP/s conversion")
	timeline := flag.Bool("timeline", true, "render the ASCII state timeline")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: prv2stats [-bins N] [-freq MHz] [-timeline] trace.prv[.gz]")
		os.Exit(2)
	}
	r, err := paraver.OpenPRV(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	st := analysis.NewStreamStats(96, *bins)
	if err := paraver.ScanPRV(r, st); err != nil {
		r.Close()
		fatal(err)
	}
	if err := r.Close(); err != nil {
		fatal(err)
	}
	tasks := st.Hdr.Tasks

	fmt.Printf("trace: %d task(s) x %d threads, %d cycles\n\n", tasks, st.Hdr.NumThreads, st.Hdr.EndTime)

	if tasks > 1 {
		for task := 0; task < tasks; task++ {
			p := st.StateProfileTask(task)
			fmt.Printf("task %d (FPGA %d): %.1f%% running, %.1f%% idle\n",
				task+1, task+1, 100*p.TotalFraction[1], 100*p.TotalFraction[0])
		}
		if st.CommCount > 0 {
			fmt.Printf("communication: %d records, %d bytes, max latency %d cycles\n",
				st.CommCount, st.CommBytes, st.CommMaxLatency)
		}
		fmt.Println()
	}

	if tasks == 1 {
		prof := st.StateProfileTask(0)
		fmt.Println("state residency (% of execution time):")
		fmt.Printf("%-8s %10s %10s %10s %10s\n", "thread", "Idle", "Running", "Critical", "Spinning")
		for t := 0; t < prof.NumThreads; t++ {
			fmt.Printf("T%-7d %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n", t,
				100*prof.Fraction[t][0], 100*prof.Fraction[t][1],
				100*prof.Fraction[t][2], 100*prof.Fraction[t][3])
		}
		fmt.Printf("%-8s %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n\n", "all",
			100*prof.TotalFraction[0], 100*prof.TotalFraction[1],
			100*prof.TotalFraction[2], 100*prof.TotalFraction[3])
	}

	if *timeline {
		for task := 0; task < tasks; task++ {
			if tasks > 1 {
				fmt.Printf("state timeline, FPGA %d (R=Running C=Critical S=Spinning .=Idle):\n", task+1)
			} else {
				fmt.Println("state timeline (R=Running C=Critical S=Spinning .=Idle):")
			}
			for _, row := range st.TimelineTask(task) {
				fmt.Println("  " + row)
			}
			fmt.Println()
		}
	}

	fmt.Printf("memory throughput |%s|\n", analysis.RenderSeries(st.MemSeries(), *bins))
	fmt.Printf("compute (FLOPs)   |%s|\n", analysis.RenderSeries(st.Series(paraver.EventFpOps), *bins))
	fmt.Printf("pipeline stalls   |%s|\n\n", analysis.RenderSeries(st.Series(paraver.EventStalls), *bins))

	bw := st.AvgBandwidthBytesPerCycle()
	fmt.Printf("totals: %d B read, %d B written, %d FLOPs, %d stalls\n",
		st.Total(paraver.EventReadBytes),
		st.Total(paraver.EventWriteBytes),
		st.Total(paraver.EventFpOps),
		st.Total(paraver.EventStalls))
	fmt.Printf("avg bandwidth: %.3f B/cycle = %.2f GB/s at %.0f MHz\n",
		bw, analysis.BandwidthGBs(bw, *freq), *freq)
	fmt.Printf("sustained compute: %.3f GFLOP/s at %.0f MHz\n",
		st.GFlops(*freq), *freq)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prv2stats:", err)
	os.Exit(1)
}
