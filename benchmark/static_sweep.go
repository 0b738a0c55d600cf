package main

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand"
	"time"

	"paravis/internal/api"
	"paravis/internal/core"
	"paravis/internal/minic"
	"paravis/internal/perfbound"
	"paravis/internal/staticcheck"
	"paravis/internal/workloads"
)

//go:embed testdata/*.mc
var testdata embed.FS

var staticSweep = workload{
	name: "static_sweep",
	why:  "full vet and perf reports for nine kernels as /v1/vet and /v1/perf build them; no simulation, so the compile and static-analysis layers own it",
	setup: func(seed int64, _ string) (instance, error) {
		s := &staticSweepInst{rng: rand.New(rand.NewSource(seed))}
		for _, u := range seedUnits {
			s.units = append(s.units, staticUnit{Unit: u, seed: true})
		}
		// The three example kernels carry their own defines. Their sizes
		// are fixed: trip-count folding iterates, so its cost grows with n,
		// and the seed must not change the amount of work. It orders the
		// units within each pass.
		for _, f := range []struct {
			file   string
			params map[string]int64
		}{
			{"dotprod.mc", map[string]int64{"n": 16384}},
			{"saxpy.mc", map[string]int64{"n": 16384}},
			{"gemm.mc", map[string]int64{"DIM": 64}},
		} {
			src, err := testdata.ReadFile("testdata/" + f.file)
			if err != nil {
				return nil, err
			}
			s.units = append(s.units, staticUnit{Unit: workloads.Unit{Name: f.file, Source: string(src), Params: f.params}})
		}
		if _, err := s.pass(nil); err != nil {
			return nil, err
		}
		return s, nil
	},
}

type staticUnit struct {
	workloads.Unit
	seed bool // one of the six seed units: vet-clean, bracket checked
}

type staticSweepInst struct {
	rng   *rand.Rand
	units []staticUnit

	// Brackets of the latest pass, by unit name.
	bounds map[string]perfbound.CycleBounds
}

// pass produces the vet and the perf report of every unit, in a seeded
// order, and checks them.
func (s *staticSweepInst) pass(tr *opTrace) (time.Duration, error) {
	order := s.rng.Perm(len(s.units))
	bounds := map[string]perfbound.CycleBounds{}
	var firstErr error
	start := time.Now()
	for _, j := range order {
		u := s.units[j]
		vet, perf, err := staticReports(tr, u)
		if err == nil {
			err = checkStatic(u, vet, perf)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		bounds[u.Name] = perf.Report.Cycles
	}
	s.bounds = bounds
	return time.Since(start), firstErr
}

// staticReports mirrors the /v1/vet and /v1/perf handlers call for call, down
// to the encoded bytes.
func staticReports(tr *opTrace, u staticUnit) (api.VetUnit, api.PerfUnit, error) {
	mopts := minic.Options{Defines: u.Defines}
	bopts := core.BuildOptions{Defines: u.Defines}

	var vet api.VetUnit
	var ds []staticcheck.Diagnostic
	tr.do("staticcheck.Vet", func() { ds = core.Vet(u.Name, u.Source, bopts) })
	var dep []api.DependLoop
	tr.do("depend.Summary", func() { dep = api.ParseDependSummary(u.Source, mopts) })
	var abs *api.AbsintSummary
	tr.do("absint.Summary", func() { abs = api.ParseAbsintSummary(u.Source, mopts) })
	vet = api.NewVetUnit(u.Name, ds, dep, abs)
	var err error
	tr.do("api.Encode", func() {
		var buf bytes.Buffer
		err = api.Encode(&buf, api.VetReport{SchemaVersion: api.Version, Units: []api.VetUnit{vet}})
	})
	if err != nil {
		return vet, api.PerfUnit{}, err
	}

	p, err := build(tr, u.Source, u.Defines)
	if err != nil {
		return vet, api.PerfUnit{}, err
	}
	cfg := perfbound.DefaultConfig()
	tr.do("absint.TripHints", func() { cfg.TripHints = api.AbsintTripHints(p.Fn, u.Params) })
	var rep *perfbound.Report
	tr.do("perfbound.Analyze", func() { rep = perfbound.Analyze(p.Kernel, p.Sched, u.Params, cfg) })
	var pds []staticcheck.Diagnostic
	tr.do("staticcheck.CheckPerf", func() { pds = staticcheck.CheckPerf(u.Name, p.Kernel, p.Sched, u.Params) })
	var pdep []api.DependLoop
	tr.do("depend.Summary", func() { pdep = api.NewDependSummary(p.Fn, u.Params) })
	perf := api.NewPerfUnit(u.Name, rep, pds, pdep, nil)
	tr.do("api.Encode", func() {
		var buf bytes.Buffer
		err = api.Encode(&buf, api.PerfReport{SchemaVersion: api.Version, Units: []api.PerfUnit{perf}})
	})
	return vet, perf, err
}

// checkStatic holds the reports against what is known of the unit: the
// seed units are vet-clean and their cycle counts with profiling off,
// pinned in expected.json, lie inside the bracket.
func checkStatic(u staticUnit, vet api.VetUnit, perf api.PerfUnit) error {
	if perf.Report == nil || vet.Absint == nil || !vet.Absint.Converged || len(vet.Depend) == 0 {
		return fmt.Errorf("%s: report incomplete", u.Name)
	}
	if !u.seed {
		return nil
	}
	if !vet.Clean {
		return fmt.Errorf("%s: not vet-clean: %v", u.Name, vet.Diagnostics)
	}
	b, measured := perf.Report.Cycles, expected.Units[u.Name].Unprofiled.Cycles
	if !b.UpperKnown || b.Lower > measured || measured > b.Upper {
		return fmt.Errorf("%s: bracket [%d, %d] misses the measured %d cycles", u.Name, b.Lower, b.Upper, measured)
	}
	return nil
}

func (s *staticSweepInst) run(w *window) []sample {
	return w.loop(func(i int, tr *opTrace) (string, time.Duration, bool) {
		dur, err := s.pass(tr)
		return "pass", dur, passed("static_sweep", i, err)
	})
}

func (s *staticSweepInst) report(m *metricSet, un, tr *phase) error {
	var lowMax, upMax float64
	for _, u := range s.units {
		b, ok := s.bounds[u.Name]
		if !u.seed || !ok {
			continue
		}
		measured := float64(expected.Units[u.Name].Unprofiled.Cycles)
		low, up := 1-float64(b.Lower)/measured, float64(b.Upper)/measured
		m.setNote("perfbound.lower_err_frac."+u.Name, low, "of %.0f measured cycles", measured)
		m.setNote("perfbound.upper_ratio."+u.Name, up, "of %.0f measured cycles", measured)
		lowMax, upMax = max(lowMax, low), max(upMax, up)
	}
	m.set("bound_lower_err_max", lowMax)
	m.set("bound_upper_ratio_max", upMax)
	if len(tr.samples) == 0 {
		return nil
	}
	reportCompileSpans(m, tr)
	m.set("staticcheck.vet_ms", tr.spanMs("staticcheck.Vet"))
	m.set("depend.summary_ms", tr.spanMs("depend.Summary"))
	m.set("absint.summary_ms", tr.spanMs("absint.Summary")+tr.spanMs("absint.TripHints"))
	m.set("perfbound.analyze_ms", tr.spanMs("perfbound.Analyze"))
	m.set("staticcheck.checkperf_ms", tr.spanMs("staticcheck.CheckPerf"))
	return nil
}

func (s *staticSweepInst) close() error { return nil }
