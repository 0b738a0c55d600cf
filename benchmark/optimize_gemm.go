package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"paravis/internal/api"
	"paravis/internal/autotune"
	"paravis/internal/core"
	"paravis/internal/minic"
	"paravis/internal/perfbound"
	"paravis/internal/sim"
	"paravis/internal/transform"
	"paravis/internal/workloads"
)

var optimizeGEMM = workload{
	name: "optimize_gemm",
	why:  "one transformation search over naive GEMM at DIM=32, where candidate rewriting and static ranking outweigh the 32 confirmation simulations",
	setup: func(seed int64, _ string) (instance, error) {
		o := &optimizeInst{
			// The search fills its own inputs and its result is pinned, so the
			// seed can only vary the text around the kernel.
			src:  fmt.Sprintf("// optimize_gemm seed %d\n", seed) + workloads.GEMMSource(workloads.GEMMNaive),
			data: newGEMMData(seed, optimizeDim),
		}
		// Warm-up: a two-round, eight-simulation search at DIM=16.
		_, err := autotune.Optimize(context.Background(), "gemm-naive", o.src, autotune.Options{
			Defines:   workloads.GEMMDefines(workloads.GEMMNaive),
			Params:    map[string]int64{"DIM": 16},
			Budget:    autotune.Budget{Candidates: 8},
			MaxRounds: 2,
		})
		return o, err
	},
}

const optimizeDim = 32

type optimizeInst struct {
	src  string
	data *gemmData
	last *autotune.Result
}

func (o *optimizeInst) options() autotune.Options {
	return autotune.Options{
		Defines: workloads.GEMMDefines(workloads.GEMMNaive),
		Params:  map[string]int64{"DIM": optimizeDim},
		Budget:  autotune.Budget{Candidates: 32},
	}
}

func (o *optimizeInst) run(w *window) []sample {
	return w.loop(func(i int, tr *opTrace) (string, time.Duration, bool) {
		var res *autotune.Result
		var err error
		start := time.Now()
		tr.do("autotune.Optimize", func() {
			res, err = autotune.Optimize(context.Background(), "gemm-naive", o.src, o.options())
		})
		dur := time.Since(start)
		if err == nil {
			o.last = res
			err = checkSearch(res)
		}
		if err == nil && tr != nil {
			err = o.replay(tr, res)
		}
		return "search", dur, passed("optimize_gemm", i, err)
	})
}

func checkSearch(res *autotune.Result) error {
	want := expected.Optimize
	if res.BaselineCycles != want.BaselineCycles || res.WinnerCycles != want.WinnerCycles ||
		res.SimsRun != want.SimsRun || !reflect.DeepEqual(res.WinnerSteps, want.WinnerSteps) {
		return fmt.Errorf("search: baseline %d, winner %d after %d sims by %v; pinned %d, %d, %d, %v",
			res.BaselineCycles, res.WinnerCycles, res.SimsRun, res.WinnerSteps,
			want.BaselineCycles, want.WinnerCycles, want.SimsRun, want.WinnerSteps)
	}
	return nil
}

// stepsKey names a chain of steps, so that a candidate finds the source
// its last step was applied to.
func stepsKey(steps []transform.Step) string {
	var sb strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&sb, "%s(%s)%v;", s.Pass, s.Loop, s.Params)
	}
	return sb.String()
}

// replay walks the search's candidate list through the same public calls
// the search makes, one span each, so the search's time can be split by
// layer from outside. Every candidate is one step applied to the winner
// of the round before; simulated candidates must reproduce their cycles.
// The search's private work (target matching, rewrites it deduplicated,
// sorting, result comparison) is what remains as autotune.self_ms, and
// the search simulates in parallel where the replay does not.
func (o *optimizeInst) replay(tr *opTrace, res *autotune.Result) error {
	opts := o.options()
	lanes := 4
	var err error
	var base string
	tr.do("transform.Canonical", func() {
		var prog *minic.Program
		tr.do("minic.Parse", func() { prog, err = minic.Parse(o.src, minic.Options{Defines: opts.Defines}) })
		if err != nil {
			return
		}
		var printed string
		tr.do("minic.Print", func() { printed = minic.Print(prog) })
		tr.do("minic.Parse", func() { prog, err = minic.Parse(printed, minic.Options{VectorLanes: lanes}) })
		if err != nil {
			return
		}
		tr.do("minic.Print", func() { base = minic.Print(prog) })
	})
	if err != nil {
		return err
	}
	topts := transform.Options{VectorLanes: lanes, Params: opts.Params}
	bopts := core.BuildOptions{VectorLanes: lanes}
	cfg := sim.DefaultConfig()
	cfg.Profile.Enabled = false

	sources := map[string]string{"": base}
	for _, c := range res.Candidates {
		n := len(c.Steps)
		from, ok := sources[stepsKey(c.Steps[:n-1])]
		if !ok {
			return fmt.Errorf("replay: %s: no source for its base", c.Name)
		}
		var src string
		tr.do("transform.Apply", func() { src, err = transform.Apply(from, c.Steps[n-1], topts) })
		if err != nil {
			continue // refused or not applicable, as the search found
		}
		sources[stepsKey(c.Steps)] = src
		var p *core.Program
		tr.do("core.Build", func() { p, err = core.Build(context.Background(), src, bopts) })
		if err != nil {
			continue
		}
		tr.do("staticcheck.Vet", func() { core.Vet(c.Name, src, bopts) })
		tr.do("perfbound.Analyze", func() {
			pcfg := perfbound.DefaultConfig()
			pcfg.Profile.Enabled = false
			pcfg.TripHints = api.AbsintTripHints(p.Fn, opts.Params)
			perfbound.Analyze(p.Kernel, p.Sched, opts.Params, pcfg)
		})
		if !c.Simulated {
			continue
		}
		args, err := unitArgs(p, workloads.Unit{Params: opts.Params}, o.data)
		if err != nil {
			return err
		}
		var out *core.RunOutput
		var runErr error
		tr.do("sim.Run", func() { out, runErr = p.Run(context.Background(), args, cfg) })
		if runErr != nil {
			return runErr
		}
		if out.Result.Cycles != c.Cycles {
			return fmt.Errorf("replay: %s: %d cycles, the search measured %d", c.Name, out.Result.Cycles, c.Cycles)
		}
	}
	return nil
}

func (o *optimizeInst) report(m *metricSet, un, tr *phase) error {
	if o.last == nil {
		return nil
	}
	m.set("winner_cycles", float64(o.last.WinnerCycles))
	m.set("search_sims", float64(o.last.SimsRun))
	m.set("autotune.candidates", float64(len(o.last.Candidates)))
	m.set("autotune.rounds", float64(o.last.Rounds))
	m.set("autotune.sims_run", float64(o.last.SimsRun))
	if len(tr.samples) == 0 {
		return nil
	}
	m.set("minic.parse_ms", tr.spanMs("minic.Parse"))
	m.set("minic.print_ms", tr.spanMs("minic.Print"))
	search := tr.spanMs("autotune.Optimize")
	parts := map[string]float64{
		"autotune.replay.transform_ms": tr.spanMs("transform.Canonical") + tr.spanMs("transform.Apply"),
		"autotune.replay.vet_ms":       tr.spanMs("staticcheck.Vet"),
		"autotune.replay.build_ms":     tr.spanMs("core.Build"),
		"autotune.replay.perfbound_ms": tr.spanMs("perfbound.Analyze"),
		"autotune.replay.sim_ms":       tr.spanMs("sim.Run"),
	}
	var replayed float64
	for name, v := range parts {
		m.setNote(name, v, "of a %.0f ms search", search)
		replayed += v
	}
	m.setNote("autotune.self_ms", search-replayed, "search %.0f ms less %.0f ms replayed", search, replayed)
	m.setNote("autotune.sim_share_frac", ratio(parts["autotune.replay.sim_ms"], search), "of a %.0f ms search", search)
	return nil
}

func (o *optimizeInst) close() error { return nil }
