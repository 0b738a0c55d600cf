// Command nymblevet runs the compile-time diagnostics engine over MiniC
// sources: the OpenMP race and map-clause checkers, the def-use dataflow
// lints (use-before-init, dead-store, unused-var), stall-lint and the
// hardened IR/schedule verifiers. It never simulates anything — every
// finding is produced before synthesis. The -json report shares its
// versioned schema (internal/api) with the nymbled daemon's /v1/vet
// response, so both emit byte-identical JSON for the same input.
//
// Usage:
//
//	nymblevet [-D NAME=VALUE]... [-rule ID] [-json|-sarif] file.mc|dir...
//	nymblevet -workloads [the same flags]
//
// A directory argument vets every *.mc file inside it. -workloads vets
// the built-in seed kernels (GEMM versions 1-5 and pi) with their
// canonical defines, which -D overrides. -rule restricts the report to
// one rule id (e.g. loop-carried-dep); clean/exit status then reflect
// only that rule. The exit status is 1 if any unit reports an
// error-severity diagnostic, 0 otherwise (warnings and infos do not fail
// the run).
// The -json report carries a "depend" section per unit (loop-by-loop
// dependence summary and transformation-legality verdicts) and an
// "absint" section (the abstract interpreter's reachability, trip and
// bounds verdicts). -sarif emits the same findings as a SARIF 2.1.0 log
// for code-scanning upload.
package main

import (
	"flag"
	"fmt"
	"os"

	"paravis/internal/api"
	"paravis/internal/cli"
	"paravis/internal/staticcheck"
	"paravis/internal/workloads"
)

func main() {
	defines := cli.Defines{}
	flag.Var(defines, "D", "macro definition NAME=VALUE (repeatable)")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	asSarif := flag.Bool("sarif", false, "emit the report as a SARIF 2.1.0 log")
	wl := flag.Bool("workloads", false, "vet the built-in seed workloads instead of files")
	rule := flag.String("rule", "", "only report diagnostics of this rule id (e.g. loop-carried-dep)")
	flag.Parse()
	if *wl == (flag.NArg() > 0) || (*asJSON && *asSarif) {
		fmt.Fprintln(os.Stderr, "usage: nymblevet [-D NAME=VALUE] [-rule ID] [-json|-sarif] file.mc|dir...")
		fmt.Fprintln(os.Stderr, "       nymblevet -workloads [the same flags]")
		os.Exit(2)
	}

	list, err := cli.Units(*wl, flag.Args(), defines, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nymblevet:", err)
		os.Exit(2)
	}
	units := make([]api.VetUnit, 0, len(list))
	for _, u := range list {
		units = append(units, vetOne(u, *rule))
	}

	failed := false
	for _, u := range units {
		for _, d := range u.Diagnostics {
			if d.Severity == staticcheck.SevError {
				failed = true
			}
		}
	}

	switch {
	case *asJSON:
		report := api.VetReport{SchemaVersion: api.Version, Units: units}
		if err := api.Encode(os.Stdout, report); err != nil {
			fmt.Fprintln(os.Stderr, "nymblevet:", err)
			os.Exit(2)
		}
	case *asSarif:
		if err := api.Encode(os.Stdout, api.NewSarif(units)); err != nil {
			fmt.Fprintln(os.Stderr, "nymblevet:", err)
			os.Exit(2)
		}
	default:
		for _, u := range units {
			status := "clean"
			if !u.Clean {
				status = "findings"
			}
			fmt.Printf("%s: %s (%d diagnostics)\n", u.Name, status, len(u.Diagnostics))
			for _, d := range u.Diagnostics {
				fmt.Printf("  %s\n", d)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// vetOne vets one unit, keeping only the diagnostics of rule when one
// is given.
func vetOne(u workloads.Unit, rule string) api.VetUnit {
	vu := api.Vet(u.Name, u.Source, u.Defines)
	if rule == "" {
		return vu
	}
	kept := []staticcheck.Diagnostic{}
	for _, d := range vu.Diagnostics {
		if d.Rule == rule {
			kept = append(kept, d)
		}
	}
	return api.NewVetUnit(vu.Name, kept, vu.Depend, vu.Absint)
}
