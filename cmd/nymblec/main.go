// Command nymblec compiles a MiniC+OpenMP source through the HLS flow and
// reports on the generated accelerator: kernel interface, dataflow graphs,
// pipeline schedule and estimated hardware footprint (with and without the
// profiling unit). The -json report uses the same versioned schema
// (internal/api) as the nymbled daemon's /v1/compile response, so both
// emit byte-identical JSON for the same input. The compile-time
// diagnostics of a kernel are nymblevet's.
//
// Usage:
//
//	nymblec [-D NAME=VALUE]... [-dump-ir] [-json] file.mc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"paravis/internal/api"
	"paravis/internal/cli"
	"paravis/internal/core"
	"paravis/internal/ir"
)

func main() {
	defines := cli.Defines{}
	flag.Var(defines, "D", "macro definition NAME=VALUE (repeatable)")
	dumpIR := flag.Bool("dump-ir", false, "print the dataflow IR")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nymblec [-D NAME=VALUE] [-dump-ir] [-json] file.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	p, err := core.Build(context.Background(), string(src), core.BuildOptions{Defines: defines})
	if err != nil {
		fatal(err)
	}
	if *dumpIR {
		fmt.Print(ir.Dump(p.Kernel))
	}

	rep := api.NewCompileReport(p)
	if *asJSON {
		if err := api.Encode(os.Stdout, rep); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("kernel %s: %d hardware threads, %d-lane vectors\n", rep.Kernel, rep.Threads, rep.VectorLanes)
	fmt.Printf("params: %s\n", strings.Join(rep.Params, ", "))
	fmt.Printf("maps:   %s\n", strings.Join(rep.Maps, ", "))
	if len(rep.Locals) > 0 {
		fmt.Printf("locals: %s\n", strings.Join(rep.Locals, ", "))
	}
	fmt.Println("graphs:")
	for _, g := range rep.Graphs {
		fmt.Printf("  %-16s %4d nodes, depth %3d, cond@%d, %d reordering stages\n",
			g.Name, g.Nodes, g.Depth, g.CondStage, g.Reordering)
	}
	fmt.Printf("area:   %d ALMs, %d registers, Fmax %.0f MHz\n",
		rep.Area.BaseALMs, rep.Area.BaseRegisters, rep.Area.BaseFmaxMHz)
	fmt.Printf("profiling overhead: regs +%.2f%%, ALMs +%.2f%%, Fmax -%.1f MHz\n",
		rep.Area.RegOverheadPct, rep.Area.ALMOverheadPct, rep.Area.FmaxDeltaMHz)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nymblec:", err)
	os.Exit(1)
}
