package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"paravis/internal/workloads"
)

// metricDef declares one metric the runner can emit. BENCHMARK.json
// lists the same names and units; a test keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"allocs_per_op", "count"},
}

// seedUnits are the six seed units. They are shared and only read.
var seedUnits = workloads.Units()

// traceSources are the two trace_export inputs.
var traceSources = []string{"gemm-naive", "pi-dense"}

// perLayer are the metrics of the traced run. Every workload prints all
// of them; a layer a workload does not reach reads 0 there.
var perLayer = buildPerLayer()

var allMetrics = append(append([]metricDef{}, endToEnd...), perLayer...)

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Whole-workload numbers that cannot carry a bound across all five
		// workloads: they exist on one only, or (op_p90_ms, alloc_mb_per_op)
		// do not repeat within a quarter on all of them.
		{"op_p90_ms", "ms"},
		{"alloc_mb_per_op", "MB"},
		{"fail_frac", "ratio"},
		{"sim_mcycles_per_s", "Mcycle/s"},
		{"trace_mb_per_s", "MB/s"},
		{"cold_run_p50_ms", "ms"},
		{"warm_hit_p50_ms", "ms"},
		{"winner_cycles", "cycles"},
		{"search_sims", "count"},
		{"bound_lower_err_max", "ratio"},
		{"bound_upper_ratio_max", "ratio"},

		{"minic.parse_ms", "ms"},
		{"minic.print_ms", "ms"},
		{"lower.lower_ms", "ms"},
		{"schedule.build_ms", "ms"},
		{"hw.compile_ms", "ms"},
		{"core.build_ms", "ms"},
		{"core.cache_hit_ratio", "ratio"},
	}
	perUnit := func(prefix, unit string) {
		for _, u := range seedUnits {
			defs = append(defs, metricDef{prefix + "." + u.Name, unit})
		}
	}
	perUnit("sim.run_ms", "ms")
	perUnit("sim.cycles", "cycles")
	perUnit("mem.dram_transactions", "count")
	defs = append(defs,
		metricDef{"hwsem.lock_contended_frac.gemm-naive", "ratio"},
		metricDef{"profile.overhead_frac.gemm-naive", "ratio"},
		metricDef{"profile.overhead_frac.pi", "ratio"},

		metricDef{"paraver.write_prv_ms", "ms"},
		metricDef{"paraver.write_prv_mb_per_s", "MB/s"},
		metricDef{"paraver.gzip_ms", "ms"},
		metricDef{"paraver.gzip_ratio", "ratio"},
		metricDef{"paraver.gunzip_ms", "ms"},
		metricDef{"paraver.scan_ms", "ms"},
		metricDef{"paraver.scan_mb_per_s", "MB/s"},
		metricDef{"paraver.render_share_frac", "ratio"},
	)
	for _, s := range traceSources {
		defs = append(defs, metricDef{"paraver.prv_mb." + s, "MB"})
	}
	for _, s := range traceSources {
		defs = append(defs, metricDef{"paraver.records." + s, "count"})
	}
	defs = append(defs,
		metricDef{"store.put_ms", "ms"},
		metricDef{"store.get_ms", "ms"},
		metricDef{"store.put_mb_per_s", "MB/s"},
		metricDef{"store.hit_ratio", "ratio"},
		metricDef{"store.puts", "count"},

		metricDef{"server.cold_run_p90_ms", "ms"},
		metricDef{"server.warm_hit_p99_ms", "ms"},
		metricDef{"server.warm_buf_p50_ms", "ms"},
		metricDef{"server.trace_get_p50_ms", "ms"},
		metricDef{"server.vet_p50_ms", "ms"},
		metricDef{"server.perf_p50_ms", "ms"},
		metricDef{"server.burst_p50_ms", "ms"},
		metricDef{"server.sims_started", "count"},
		metricDef{"server.coalesced_frac", "ratio"},
		metricDef{"server.refused", "count"},

		metricDef{"staticcheck.vet_ms", "ms"},
		metricDef{"depend.summary_ms", "ms"},
		metricDef{"absint.summary_ms", "ms"},
		metricDef{"perfbound.analyze_ms", "ms"},
		metricDef{"staticcheck.checkperf_ms", "ms"},
	)
	perUnit("perfbound.lower_err_frac", "ratio")
	perUnit("perfbound.upper_ratio", "ratio")
	defs = append(defs,
		metricDef{"autotune.candidates", "count"},
		metricDef{"autotune.rounds", "count"},
		metricDef{"autotune.sims_run", "count"},
		metricDef{"autotune.replay.transform_ms", "ms"},
		metricDef{"autotune.replay.vet_ms", "ms"},
		metricDef{"autotune.replay.build_ms", "ms"},
		metricDef{"autotune.replay.perfbound_ms", "ms"},
		metricDef{"autotune.replay.sim_ms", "ms"},
		metricDef{"autotune.self_ms", "ms"},
		metricDef{"autotune.sim_share_frac", "ratio"},

		metricDef{"runtime.heap_peak_mb", "MB"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.gomaxprocs", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return defs
}

// metricSet holds one run's values by metric name. A note is the sample
// count behind a percentile or the base behind a ratio.
type metricSet struct {
	value map[string]float64
	note  map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{value: map[string]float64{}, note: map[string]string{}}
}

var declared = func() map[string]bool {
	names := map[string]bool{}
	for _, d := range allMetrics {
		names[d.Name] = true
	}
	return names
}()

// set records a value. Setting a metric that is not declared is a bug in
// the runner, and NaN or Inf would not survive the JSON line.
func (m *metricSet) set(name string, v float64) {
	if !declared[name] {
		panic("benchmark: metric " + name + " is not declared")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("benchmark: metric %s = %v", name, v))
	}
	m.value[name] = v
}

// setNote records a value with the sample count or ratio base printed
// beside it.
func (m *metricSet) setNote(name string, v float64, format string, args ...any) {
	m.set(name, v)
	m.note[name] = fmt.Sprintf(format, args...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

// ratio is num/den, 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the p-quantile (0..1) of the durations by the
// nearest-rank rule; 0 for an empty set.
func percentile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailPermille are the percentiles a report may quote, highest first.
var tailPermille = []int{999, 990, 900}

// pickTail returns the highest of p99.9, p99 and p90 that still has at
// least ten of the n samples beyond it, or 0 when even p90 does not
// (n < 100).
func pickTail(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000
		}
	}
	return 0
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
