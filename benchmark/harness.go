package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// sample is one op's outcome; the raw samples of a run go to a CSV.
type sample struct {
	class string
	op    int
	start time.Duration // since the window opened
	dur   time.Duration
	ok    bool
}

// workload is one named benchmark workload. setup builds every input
// from the seed, keeps scratch files under dir and ends with an untimed
// warm-up, all of which counts into setup_s.
type workload struct {
	name  string
	why   string
	setup func(seed int64, dir string) (instance, error)
}

// instance is a set-up workload ready to measure.
type instance interface {
	// run drives the closed loop until the window has expired and returns
	// one sample per op. It calls w.boundary() between ops.
	run(w *window) []sample
	// report adds the workload's own metrics; tr is empty for an untraced
	// run. An error is a reference check that failed outside any op.
	report(m *metricSet, un, tr *phase) error
	close() error
}

// phase is one measured window and what it produced.
type phase struct {
	samples []sample
	wall    time.Duration
	spans   []span
}

func (p *phase) durs(class string) []time.Duration {
	var ds []time.Duration
	for _, s := range p.samples {
		if class == "" || s.class == class {
			ds = append(ds, s.dur)
		}
	}
	return ds
}

// spanMs is the mean per op, in ms, of the time spent in spans of the
// given name.
func (p *phase) spanMs(name string) float64 {
	if len(p.samples) == 0 {
		return 0
	}
	var total int64
	for _, s := range p.spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return float64(total) / 1e6 / float64(len(p.samples))
}

// window is one measured stretch of a run.
type window struct {
	start time.Time
	d     time.Duration
	rec   *recorder // nil in the untraced window

	mu         sync.Mutex
	sampleHeap bool
	lastHeap   time.Time
	heapPeak   uint64
}

func (w *window) since() time.Duration { return time.Since(w.start) }
func (w *window) expired() bool        { return w.since() >= w.d }

// boundary is called between ops, outside any timed region. In a traced
// window it samples the heap, at most every 50 ms since ReadMemStats
// stops the world.
func (w *window) boundary() {
	if !w.sampleHeap {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if time.Since(w.lastHeap) < 50*time.Millisecond {
		return
	}
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	w.heapPeak = max(w.heapPeak, mst.HeapInuse)
	w.lastHeap = time.Now()
}

// loop is the single-client closed loop: op i+1 starts when op i has
// returned, and at least one op runs. op returns the op's class, its comparable duration (traced
// ops leave out work only the trace adds) and whether its outputs passed
// the reference checks.
func (w *window) loop(op func(i int, tr *opTrace) (class string, dur time.Duration, ok bool)) []sample {
	var out []sample
	for i := 0; i == 0 || !w.expired(); i++ {
		tr := w.rec.begin(i)
		start := w.since()
		class, dur, ok := op(i, tr)
		tr.end()
		out = append(out, sample{class: class, op: i, start: start, dur: dur, ok: ok})
		w.boundary()
	}
	return out
}

// setupReps is how often a measuring run sets the workload up; setup_s
// is the median, so one slow disk flush does not decide it.
const setupReps = 3

// result is everything one run of one workload produced.
type result struct {
	workload  string
	seed      int64
	traced    bool
	metrics   *metricSet
	attempted int
	failed    int
	un, tr    phase
}

func (r *result) correct() bool { return r.failed == 0 }

// runWorkload sets the workload up, measures it for the given time and
// collects its metrics. An untraced run spends the whole time in one
// window. A traced run spends a third untraced, the base for
// trace.overhead_frac, and the rest with the span recorder on.
func runWorkload(wl workload, seed int64, seconds float64, traced bool, outDir string, reps int) (*result, error) {
	dir := filepath.Join(outDir, "tmp-"+wl.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", wl.name, err)
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		var err error
		inst, err = wl.setup(seed, filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer inst.close()

	res := &result{workload: wl.name, seed: seed, traced: traced, metrics: newMetricSet()}
	m := res.metrics
	m.setNote("setup_s", median(setups), "median of %d set-ups", reps)

	total := time.Duration(seconds * float64(time.Second))
	unWindow := total
	if traced {
		unWindow = total / 3
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := &window{start: time.Now(), d: unWindow}
	res.un.samples = inst.run(w)
	res.un.wall = w.since()
	runtime.ReadMemStats(&m1)

	un := &res.un
	nOps := float64(len(un.samples))
	if nOps == 0 {
		return nil, fmt.Errorf("%s: no op completed", wl.name)
	}
	all := un.durs("")
	m.setNote("ops_per_s", nOps/un.wall.Seconds(), "%d ops in %.3f s", len(all), un.wall.Seconds())
	m.setNote("op_p50_ms", ms(percentile(all, 0.5)), "n=%d", len(all))
	if pickTail(len(all)) > 0 {
		m.setNote("op_p90_ms", ms(percentile(all, 0.9)), "n=%d", len(all))
	}
	m.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/nOps)
	m.set("alloc_mb_per_op", mb(int64(m1.TotalAlloc-m0.TotalAlloc))/nOps)
	m.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	m.set("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	if traced {
		rec := newRecorder()
		w := &window{start: time.Now(), d: total - unWindow, rec: rec, sampleHeap: true}
		res.tr.samples = inst.run(w)
		res.tr.wall = w.since()
		res.tr.spans = rec.spans
		m.set("runtime.heap_peak_mb", mb(int64(w.heapPeak)))
		// Per op, so that a window cut short by its last op does not count.
		unPer := float64(sumDur(un.durs(""))) / nOps
		trPer := float64(sumDur(res.tr.durs(""))) / float64(max(len(res.tr.samples), 1))
		m.setNote("trace.overhead_frac", ratio(trPer, unPer)-1, "base %.3f ms/op untraced", unPer/1e6)
	}
	if err := inst.report(m, un, &res.tr); err != nil {
		res.attempted++
		res.failed++
		passed(wl.name, -1, err)
	}
	if traced {
		// A traced run reports every per-layer metric: a layer the workload
		// does not reach reads 0.
		for _, d := range perLayer {
			if _, set := m.value[d.Name]; !set {
				m.set(d.Name, 0)
			}
		}
	}

	for _, s := range append(append([]sample{}, un.samples...), res.tr.samples...) {
		res.attempted++
		if !s.ok {
			res.failed++
		}
	}
	m.setNote("fail_frac", ratio(float64(res.failed), float64(res.attempted)), "%d of %d ops", res.failed, res.attempted)
	return res, nil
}

// passed reports whether an op's reference checks held, and says on
// standard error which did not.
func passed(workload string, op int, err error) bool {
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s op %d: %v\n", workload, op, err)
	}
	return err == nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
