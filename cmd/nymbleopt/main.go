// Command nymbleopt searches the transformation space of MiniC kernels:
// legality-gated source-to-source passes (work redistribution,
// vectorization, loop tiling, BRAM blocking, double buffering) crossed
// with their parameter grids, ranked by perfbound's static cycle
// brackets and confirmed by short simulator runs. The output is the
// winning transformation sequence, its measured cycles against the
// baseline, and the full candidate-by-candidate exploration report.
// The -json report is the versioned api.OptimizeReport (internal/api).
// The search runs in-process under a signal context: an interrupt
// (SIGINT, SIGTERM) ends it, and the unit reports the interruption as its
// error instead of a truncated candidate list.
//
// Usage:
//
//	nymbleopt [-D NAME=VALUE]... [-param NAME=VALUE]... [-json]
//	          [-budget N] [-rounds N] [-o dir] file.mc|dir...
//	nymbleopt -workloads [the same flags]
//
// -param supplies integer launch arguments (e.g. -param DIM=64); the
// passes fold divisibility proofs against them and the simulator
// receives them as scalar arguments. A directory argument optimizes
// every *.mc file inside it. -workloads searches the built-in seed
// kernels with their canonical defines and parameters, which -D and
// -param override; every other flag applies as it does to files. -o
// writes each winning kernel to dir/<name>.opt.mc.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"paravis/internal/api"
	"paravis/internal/autotune"
	"paravis/internal/cli"
	"paravis/internal/workloads"
)

func main() {
	defines := cli.Defines{}
	params := cli.Params{}
	flag.Var(defines, "D", "macro definition NAME=VALUE (repeatable)")
	flag.Var(params, "param", "integer launch parameter NAME=VALUE (repeatable)")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	wl := flag.Bool("workloads", false, "search the built-in seed workloads instead of files")
	budget := flag.Int("budget", 0, "max simulator confirmations across the search (0 = 32)")
	rounds := flag.Int("rounds", 0, "max greedy rounds (0 = 8)")
	outDir := flag.String("o", "", "write each winning kernel to dir/<name>.opt.mc")
	flag.Parse()
	if *wl == (flag.NArg() > 0) {
		fmt.Fprintln(os.Stderr, "usage: nymbleopt [-D NAME=VALUE] [-param NAME=VALUE] [-json] [-budget N] [-rounds N] [-o dir] file.mc|dir...")
		fmt.Fprintln(os.Stderr, "       nymbleopt -workloads [the same flags]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	list, err := cli.Units(*wl, flag.Args(), defines, params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nymbleopt:", err)
		os.Exit(2)
	}
	units := make([]api.OptimizeUnit, 0, len(list))
	for _, u := range list {
		res, err := autotune.Optimize(ctx, u.Name, u.Source, searchOptions(u, *budget, *rounds))
		// A failed search is the unit's Error, so a bad file does not
		// abort a multi-file report.
		units = append(units, api.NewOptimizeUnit(u.Name, res, err))
	}

	failed := false
	for _, u := range units {
		if u.Error != "" {
			failed = true
		}
	}

	if *outDir != "" {
		if err := writeWinners(*outDir, units); err != nil {
			fmt.Fprintln(os.Stderr, "nymbleopt:", err)
			os.Exit(2)
		}
	}

	if *asJSON {
		report := api.OptimizeReport{SchemaVersion: api.Version, Units: units}
		if err := api.Encode(os.Stdout, report); err != nil {
			fmt.Fprintln(os.Stderr, "nymbleopt:", err)
			os.Exit(2)
		}
	} else {
		for _, u := range units {
			printUnit(u)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// searchOptions is the search configuration of one unit: its defines
// and launch arguments under the command line's -budget and -rounds.
func searchOptions(u workloads.Unit, budget, rounds int) autotune.Options {
	return autotune.Options{
		Defines:   u.Defines,
		Params:    u.Params,
		Floats:    u.Floats,
		Budget:    autotune.Budget{Candidates: budget},
		MaxRounds: rounds,
	}
}

// writeWinners stores each unit's winning kernel as dir/<name>.opt.mc.
func writeWinners(dir string, units []api.OptimizeUnit) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, u := range units {
		if u.Source == "" {
			continue
		}
		base := strings.TrimSuffix(filepath.Base(u.Name), ".mc")
		if err := os.WriteFile(filepath.Join(dir, base+".opt.mc"), []byte(u.Source), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func printUnit(u api.OptimizeUnit) {
	fmt.Printf("== %s ==\n", u.Name)
	if u.Error != "" {
		fmt.Printf("  error: %s\n", u.Error)
		return
	}
	fmt.Printf("  baseline: %d cycles\n", u.BaselineCycles)
	if u.Winner == "" {
		fmt.Printf("  no transformation beat the baseline (%d candidates, %d simulated, %d rounds)\n",
			len(u.Candidates), u.SimsRun, u.Rounds)
		return
	}
	fmt.Printf("  winner:   %d cycles (%.2fx) in bracket [%d, %s]\n",
		u.WinnerCycles, float64(u.BaselineCycles)/float64(u.WinnerCycles),
		u.WinnerLower, upperString(u.WinnerUpper, u.UpperKnown))
	for i, s := range u.WinnerSteps {
		fmt.Printf("  step %d:   %s on %s%s\n", i+1, s.Pass, s.Loop, paramString(s.Params))
	}
	fmt.Printf("  explored %d candidates, %d simulated, %d rounds\n",
		len(u.Candidates), u.SimsRun, u.Rounds)
}

func upperString(upper int64, known bool) string {
	if !known {
		return "?"
	}
	return fmt.Sprintf("%d", upper)
}

func paramString(ps map[string]int64) string {
	if len(ps) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ps))
	for k := range ps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, ps[k]))
	}
	return " {" + strings.Join(parts, ", ") + "}"
}
