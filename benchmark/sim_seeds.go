package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"paravis/internal/core"
	"paravis/internal/hw"
	"paravis/internal/ir"
	"paravis/internal/lower"
	"paravis/internal/minic"
	"paravis/internal/paraver"
	"paravis/internal/schedule"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

var simSeeds = workload{
	name: "sim_seeds",
	why:  "CLI user's source-to-bundle latency over the six seed kernels, each cold; the engine owns 95 % of it, compile and trace the rest",
	setup: func(seed int64, _ string) (instance, error) {
		s := &simSeedsInst{units: seedUnits, data: newGEMMData(seed, 64)}
		s.runMs = make([][]float64, len(s.units))
		s.last = make([]*unitRun, len(s.units))
		// Warm-up: the same pass at a quarter of the size, to grow the heap
		// and fill the engine's arenas.
		small := newGEMMData(seed, 32)
		for _, u := range s.units {
			if _, ok := u.Params["DIM"]; ok {
				u.Params = map[string]int64{"DIM": 32}
			} else {
				u.Params = map[string]int64{"steps": 25600, "threads": 8}
				u.Floats = map[string]float64{"step": 1.0 / 25600, "final_sum": 0}
			}
			if _, err := runUnit(nil, u, small, false); err != nil {
				return nil, err
			}
		}
		return s, nil
	},
}

// gemmData is a seeded pair of input matrices and their product.
type gemmData struct {
	dim  int
	a, b []float32
	ref  []float32
}

// newGEMMData draws A and B as multiples of 1/8 in [-0.5, 1], which
// keeps float32 accumulation error far inside the ±0.05 check.
func newGEMMData(seed int64, dim int) *gemmData {
	rng := rand.New(rand.NewSource(seed))
	d := &gemmData{dim: dim, a: make([]float32, dim*dim), b: make([]float32, dim*dim)}
	for i := range d.a {
		d.a[i] = float32(rng.Intn(13))/8 - 0.5
		d.b[i] = float32(rng.Intn(13))/8 - 0.5
	}
	d.ref = workloads.GEMMRef(d.a, d.b, dim)
	return d
}

// unitRun is what the checks and the metrics keep of one unit run. The
// run's output and its bundle are dropped, so that finished ops do not
// grow the heap.
type unitRun struct {
	unitPin
	lockAcquisitions int64
	lockContended    int64
	finalSum         float64       // pi's result
	c                []float32     // GEMM's result, nil for pi
	runDur           time.Duration // host time of Program.Run
}

func newUnitRun(out *core.RunOutput, args sim.Args, runDur time.Duration) *unitRun {
	res := out.Result
	r := &unitRun{
		unitPin:          unitPin{Cycles: res.Cycles, DRAMTransactions: res.DRAM.Transactions, FpOps: res.TotalFpOps()},
		lockAcquisitions: res.LockAcquisitions,
		lockContended:    res.LockContended,
		finalSum:         res.ScalarsOut["final_sum"],
		runDur:           runDur,
	}
	if buf, ok := args.Buffers["C"]; ok {
		r.c = buf.Floats()
	}
	return r
}

// buildDecomposed is core.Build taken apart, one span per layer, for the
// traced run. The caller asserts that the program simulates to the same
// cycle count as the front door's.
func buildDecomposed(tr *opTrace, src string, defines map[string]string) (*core.Program, error) {
	var p *core.Program
	var err error
	tr.do("core.Build", func() {
		var prog *minic.Program
		tr.do("minic.Parse", func() { prog, err = minic.Parse(src, minic.Options{Defines: defines}) })
		if err != nil {
			return
		}
		var fn *minic.FuncDecl
		var ts *minic.TargetStmt
		tr.do("minic.FindTarget", func() { fn, ts, err = minic.FindTarget(prog) })
		if err != nil {
			return
		}
		var k *ir.Kernel
		tr.do("lower.Lower", func() { k, err = lower.Lower(prog) })
		if err != nil {
			return
		}
		tr.do("ir.Validate", func() { err = ir.Validate(k) })
		if err != nil {
			return
		}
		var s *schedule.Schedule
		tr.do("schedule.Build", func() { s, err = schedule.Build(k, schedule.DefaultConfig()) })
		if err != nil {
			return
		}
		tr.do("schedule.Validate", func() { err = s.Validate() })
		if err != nil {
			return
		}
		var ck *hw.CKernel
		tr.do("hw.Compile", func() { ck, err = hw.Compile(k, s) })
		if err != nil {
			return
		}
		// The area coefficients stay zero: only RunOutput.FmaxMHz reads
		// them, and the benchmark does not.
		p = &core.Program{Source: src, AST: prog, Fn: fn, Target: ts, Kernel: k, Sched: s, CK: ck}
	})
	return p, err
}

// build compiles through the front door, or through its decomposition
// when the op is traced.
func build(tr *opTrace, src string, defines map[string]string) (*core.Program, error) {
	if tr != nil {
		return buildDecomposed(tr, src, defines)
	}
	return core.Build(context.Background(), src, core.BuildOptions{Defines: defines})
}

// renderBundle is the nymblesim/nymbled byte path: .prv, its gzip at
// BestSpeed, .pcf and .row, all in memory.
func renderBundle(tr *opTrace, st *paraver.StreamTrace) (map[string][]byte, error) {
	var prv, gzBuf, pcf, row bytes.Buffer
	var err error
	tr.do("paraver.WritePRV", func() { err = st.WritePRV(&prv) })
	if err != nil {
		return nil, err
	}
	tr.do("gzip.Write", func() {
		var gz *gzip.Writer
		if gz, err = gzip.NewWriterLevel(&gzBuf, gzip.BestSpeed); err != nil {
			return
		}
		if _, err = gz.Write(prv.Bytes()); err != nil {
			return
		}
		err = gz.Close()
	})
	if err != nil {
		return nil, err
	}
	tr.do("paraver.WritePCF", func() { err = st.WritePCF(&pcf) })
	if err != nil {
		return nil, err
	}
	tr.do("paraver.WriteROW", func() { err = st.WriteROW(&row) })
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"trace.prv":    prv.Bytes(),
		"trace.prv.gz": gzBuf.Bytes(),
		"trace.pcf":    pcf.Bytes(),
		"trace.row":    row.Bytes(),
	}, nil
}

// unitArgs sizes the unit's launch arguments and loads the GEMM inputs.
func unitArgs(p *core.Program, u workloads.Unit, data *gemmData) (sim.Args, error) {
	args, err := p.SizedArgs(u.Params, u.Floats)
	if err != nil {
		return sim.Args{}, err
	}
	if _, ok := args.Buffers["A"]; ok {
		args.Buffers["A"] = sim.NewFloatBuffer(data.a)
		args.Buffers["B"] = sim.NewFloatBuffer(data.b)
	}
	return args, nil
}

// runUnit takes one unit from source text to bundle bytes: build, size
// arguments, simulate, render.
func runUnit(tr *opTrace, u workloads.Unit, data *gemmData, noProfile bool) (*unitRun, error) {
	p, err := build(tr, u.Source, u.Defines)
	if err != nil {
		return nil, err
	}
	var args sim.Args
	tr.do("core.SizedArgs", func() { args, err = unitArgs(p, u, data) })
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.Profile.Enabled = !noProfile
	var out *core.RunOutput
	t := time.Now()
	tr.do("sim.Run", func() { out, err = p.Run(context.Background(), args, cfg) })
	runDur := time.Since(t)
	if err != nil {
		return nil, err
	}
	if out.Streams != nil {
		if _, err = renderBundle(tr, out.Streams); err != nil {
			return nil, err
		}
	}
	return newUnitRun(out, args, runDur), nil
}

// checkUnit compares a unit run with the host references and the pinned
// simulated statistics.
func checkUnit(u workloads.Unit, r *unitRun, data *gemmData, pin unitPin) error {
	if r.c != nil {
		for i, want := range data.ref {
			if d := float64(r.c[i] - want); math.Abs(d) > 0.05 {
				return fmt.Errorf("%s: C[%d] = %g, want %g", u.Name, i, r.c[i], want)
			}
		}
	} else {
		steps, threads := int(u.Params["steps"]), int(u.Params["threads"])
		want := float64(workloads.PiRefSum(steps, threads))
		if math.Abs(r.finalSum-want) > 1e-3*want {
			return fmt.Errorf("%s: final_sum = %g, want %g", u.Name, r.finalSum, want)
		}
	}
	if r.unitPin != pin {
		return fmt.Errorf("%s: cycles, DRAM transactions, FLOPs = %+v, pinned %+v", u.Name, r.unitPin, pin)
	}
	return nil
}

// runChecked is runUnit followed by checkUnit.
func runChecked(tr *opTrace, u workloads.Unit, data *gemmData, noProfile bool, pin unitPin) (*unitRun, error) {
	r, err := runUnit(tr, u, data, noProfile)
	if err == nil {
		err = checkUnit(u, r, data, pin)
	}
	return r, err
}

type simSeedsInst struct {
	units []workloads.Unit
	data  *gemmData

	// Filled while measuring, both windows together.
	cycles int64
	runDur time.Duration
	runMs  [][]float64 // per unit, host ms of each Program.Run
	last   []*unitRun  // per unit, the latest run
}

func (s *simSeedsInst) run(w *window) []sample {
	return w.loop(func(i int, tr *opTrace) (string, time.Duration, bool) {
		var err error
		t := time.Now()
		for j, u := range s.units {
			// The check is a few thousand comparisons inside a pass of seconds.
			var r *unitRun
			if r, err = runChecked(tr, u, s.data, false, expected.Units[u.Name].Profiled); err != nil {
				break
			}
			s.cycles += r.Cycles
			s.runDur += r.runDur
			s.runMs[j] = append(s.runMs[j], ms(r.runDur))
			s.last[j] = r
		}
		return "pass", time.Since(t), passed("sim_seeds", i, err)
	})
}

func (s *simSeedsInst) report(m *metricSet, un, tr *phase) error {
	m.setNote("sim_mcycles_per_s", ratio(float64(s.cycles)/1e6, s.runDur.Seconds()),
		"%d simulated cycles in %.3f s of Program.Run", s.cycles, s.runDur.Seconds())
	for j, u := range s.units {
		m.setNote("sim.run_ms."+u.Name, median(s.runMs[j]), "n=%d", len(s.runMs[j]))
		if r := s.last[j]; r != nil {
			m.set("sim.cycles."+u.Name, float64(r.Cycles))
			m.set("mem.dram_transactions."+u.Name, float64(r.DRAMTransactions))
			if j == 0 {
				m.setNote("hwsem.lock_contended_frac.gemm-naive",
					ratio(float64(r.lockContended), float64(r.lockAcquisitions)),
					"of %d acquisitions", r.lockAcquisitions)
			}
		}
	}
	if len(tr.samples) == 0 {
		return nil
	}
	reportCompileSpans(m, tr)
	render := tr.spanMs("paraver.WritePRV") + tr.spanMs("gzip.Write") + tr.spanMs("paraver.WritePCF") + tr.spanMs("paraver.WriteROW")
	opMs := ms(sumDur(tr.durs(""))) / float64(len(tr.samples))
	m.setNote("paraver.render_share_frac", ratio(render, opMs), "of %.1f ms/op", opMs)
	m.set("paraver.write_prv_ms", tr.spanMs("paraver.WritePRV"))
	m.set("paraver.gzip_ms", tr.spanMs("gzip.Write"))

	// Every unit once more with the profiling unit off, outside any op:
	// its pins are checked, and for gemm-naive and pi the median of three
	// runs is the base of profiling's host cost.
	for j, u := range s.units {
		reps := 1
		if u.Name == "gemm-naive" || u.Name == "pi" {
			reps = 3
		}
		var off []float64
		for k := 0; k < reps; k++ {
			r, err := runChecked(nil, u, s.data, true, expected.Units[u.Name].Unprofiled)
			if err != nil {
				return err
			}
			off = append(off, ms(r.runDur))
		}
		if reps > 1 {
			m.setNote("profile.overhead_frac."+u.Name, ratio(median(s.runMs[j]), median(off))-1,
				"base %.1f ms with profiling off", median(off))
		}
	}
	return nil
}

// reportCompileSpans fills the compile-layer metrics from a traced phase.
func reportCompileSpans(m *metricSet, tr *phase) {
	m.set("minic.parse_ms", tr.spanMs("minic.Parse"))
	m.set("minic.print_ms", tr.spanMs("minic.Print"))
	m.set("lower.lower_ms", tr.spanMs("lower.Lower"))
	m.set("schedule.build_ms", tr.spanMs("schedule.Build"))
	m.set("hw.compile_ms", tr.spanMs("hw.Compile"))
	m.set("core.build_ms", tr.spanMs("core.Build"))
}

func (s *simSeedsInst) close() error { return nil }
