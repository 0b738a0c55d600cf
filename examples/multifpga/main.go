// Multi-FPGA case study — the paper's stated future work realized: "we
// plan to extend our infrastructure for communication between FPGAs in a
// multi-FPGA setup."
//
// A 1-D Jacobi stencil is partitioned across several simulated FPGA
// accelerators. Each sweep runs on every FPGA in parallel; afterwards
// neighboring FPGAs exchange halo cells over a modeled link. The merged
// Paraver trace contains one task per FPGA and a communication record per
// halo transfer, so board-level traffic and accelerator-internal execution
// appear in the same timeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"paravis/internal/cluster"
	"paravis/internal/paraver/analysis"
)

func main() {
	fpgas := flag.Int("fpgas", 2, "number of simulated FPGA boards")
	cells := flag.Int("cells", 64, "total stencil cells (divisible by fpgas)")
	steps := flag.Int("steps", 4, "Jacobi sweeps")
	linkLat := flag.Int64("linklat", 500, "FPGA-to-FPGA link latency in cycles")
	traces := flag.String("traces", "traces", "output directory for the Paraver bundle")
	flag.Parse()

	initial := make([]float32, *cells)
	for i := range initial {
		initial[i] = float32(i % 16)
	}

	cfg := cluster.DefaultConfig()
	cfg.FPGAs = *fpgas
	cfg.LinkLatency = *linkLat

	res, err := cluster.RunStencil(context.Background(), initial, *steps, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Verify against the host reference.
	want := cluster.Reference(initial, *steps)
	var maxd float64
	for i := range want {
		d := float64(res.Final[i] - want[i])
		if d < 0 {
			d = -d
		}
		if d > maxd {
			maxd = d
		}
	}
	fmt.Printf("== %d-cell Jacobi stencil on %d FPGAs, %d sweeps ==\n", *cells, *fpgas, *steps)
	fmt.Printf("result verified against host reference (max |diff| = %.2g)\n\n", maxd)

	fmt.Printf("makespan: %d cycles (%d compute + %d halo exchange)\n",
		res.TotalCycles, res.ComputeCycles, res.ExchangeCycles)
	fmt.Printf("halo transfers: %d messages over a %d-cycle link\n\n",
		res.HaloTransfers, cfg.LinkLatency)

	stats := analysis.NewStreamStats(0, 0)
	if err := res.Streams.Scan(stats); err != nil {
		log.Fatal(err)
	}
	for f := 0; f < res.FPGAs; f++ {
		prof := stats.StateProfileTask(f)
		fmt.Printf("FPGA %d: %.1f%% of the timeline running (rest idle between sweeps)\n",
			f, 100*prof.TotalFraction[1])
	}
	fmt.Println("\nfirst halo exchanges in the trace (Paraver record type 3):")
	for i, c := range res.Streams.Comms {
		if i >= 4 {
			fmt.Printf("  ... %d more\n", len(res.Streams.Comms)-4)
			break
		}
		fmt.Printf("  sweep %d: FPGA%d -> FPGA%d, %dB, sent @%d, received @%d\n",
			c.Tag, c.SendTask, c.RecvTask, c.Size, c.SendTime, c.RecvTime)
	}

	prv, err := res.Streams.WriteBundle(*traces, "stencil_cluster")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmulti-task Paraver trace written to %s (+ .pcf/.row)\n", prv)
}
