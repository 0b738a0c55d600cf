// Command nymbleperf runs the static performance-bound analyzer over
// MiniC sources: per-loop initiation intervals, total-cycle lower/upper
// bounds from constant-folded trip counts, a roofline memory-boundedness
// verdict against the DRAM model, a static profile-buffer overflow
// check, and wall-time bounds at the estimated Fmax. Nothing is
// simulated — every number is derived from the schedule before synthesis.
// The -json report shares its versioned schema (internal/api) with the
// nymbled daemon's /v1/perf response, so both emit byte-identical JSON
// for the same input.
//
// Usage:
//
//	nymbleperf [-D NAME=VALUE]... [-param NAME=VALUE]... [-json] file.mc|dir...
//	nymbleperf -workloads [-json]
//
// -param supplies integer launch arguments (e.g. -param DIM=64) so
// data-dependent trip counts fold to constants. A directory argument
// analyzes every *.mc file inside it. -workloads analyzes the
// built-in seed kernels (GEMM versions 1-5 and pi) with their canonical
// defines and parameters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"paravis/internal/api"
	"paravis/internal/cli"
	"paravis/internal/core"
	"paravis/internal/workloads"
)

func main() {
	defines := cli.Defines{}
	params := cli.Params{}
	flag.Var(defines, "D", "macro definition NAME=VALUE (repeatable)")
	flag.Var(params, "param", "integer launch parameter NAME=VALUE for trip-count folding (repeatable)")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	wl := flag.Bool("workloads", false, "analyze the built-in seed workloads instead of files")
	flag.Parse()
	if *wl == (flag.NArg() > 0) {
		fmt.Fprintln(os.Stderr, "usage: nymbleperf [-D NAME=VALUE] [-param NAME=VALUE] [-json] file.mc|dir...")
		fmt.Fprintln(os.Stderr, "       nymbleperf -workloads [-json]")
		os.Exit(2)
	}

	var units []api.PerfUnit
	if *wl {
		for _, w := range workloads.Units() {
			units = append(units, analyzeOne(w.Name, w.Source, w.Defines, w.Params))
		}
	} else {
		paths, err := cli.ExpandPaths(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "nymbleperf:", err)
			os.Exit(2)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nymbleperf:", err)
				os.Exit(2)
			}
			units = append(units, analyzeOne(path, string(src), defines, params))
		}
	}

	failed := false
	for _, u := range units {
		if u.Error != "" {
			failed = true
		}
	}

	if *asJSON {
		report := api.PerfReport{SchemaVersion: api.Version, Units: units}
		if err := api.Encode(os.Stdout, report); err != nil {
			fmt.Fprintln(os.Stderr, "nymbleperf:", err)
			os.Exit(2)
		}
	} else {
		for _, u := range units {
			fmt.Printf("== %s ==\n", u.Name)
			if u.Error != "" {
				fmt.Printf("  error: %s\n", u.Error)
				continue
			}
			fmt.Print(u.Report.Format())
			for _, d := range u.Diagnostics {
				fmt.Printf("  %s\n", d)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func analyzeOne(name, src string, defines map[string]string, params map[string]int64) api.PerfUnit {
	prog, err := core.Build(context.Background(), src, core.BuildOptions{Defines: defines})
	if err != nil {
		return api.NewPerfUnit(name, nil, nil, nil, err)
	}
	return api.AnalyzePerf(name, prog, params)
}
