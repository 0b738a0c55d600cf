// Command benchmark is the repository's one layered benchmark: five named
// workloads, each checked against references, reporting end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// BENCHMARK.json at the repository root declares its command, workloads
// and metrics; README.md beside this file explains them.
//
//	go run -C benchmark . [-workload name] [-seed N] [-seconds S] [-trace 0|1]
//	                      [-check] [-selfcheck] [-json path] [-out dir]
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

var workloadList = []workload{simSeeds, traceExport, staticSweep, optimizeGEMM, serveMix}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 12, "length of the measured window per workload")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics")
	check := flag.Bool("check", false, "validate only: one op per workload against the references, no metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare against the declared bounds")
	jsonPath := flag.String("json", "", "also write every metric of the run to this file")
	outDir := flag.String("out", "out", "directory for raw samples, spans and scratch files")
	flag.Parse()

	var wls []workload
	for _, wl := range workloadList {
		if *name == "" || *name == wl.name {
			wls = append(wls, wl)
		}
	}
	if len(wls) == 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or stray arguments %v\n", *name, flag.Args())
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	if *selfcheck {
		if !selfCheck(wls, *seed, *seconds, *outDir) {
			os.Exit(1)
		}
		return
	}
	reps := setupReps
	if *check {
		// One set-up, and one op in each window: a window always runs an op,
		// however short it is. Traced, so that the decomposed build, the
		// search replay and the pins with profiling off are checked too.
		*seconds, *trace, reps = 0, 1, 1
	}

	ok := true
	var results []*result
	for _, wl := range wls {
		res, err := runWorkload(wl, *seed, *seconds, *trace == 1, *outDir, reps)
		if err != nil {
			fatal(err)
		}
		ok = ok && res.correct()
		results = append(results, res)
		if *check {
			fmt.Printf("%s check %d of %d ops failed\n", wl.name, res.failed, res.attempted)
			continue
		}
		if err := res.writeRaw(*outDir); err != nil {
			fatal(err)
		}
		res.printText()
		res.printJSONLine()
	}
	if *jsonPath != "" && !*check {
		if err := writeJSONFile(*jsonPath, results); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// reported are the metrics the contract's JSON line carries: the
// end-to-end set for an untraced run, the per-layer set for a traced one.
func (r *result) reported() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// printText prints one line per metric the run set: workload, metric,
// value, unit, then the sample count or the ratio's base. An untraced run
// sets, beside the end-to-end metrics, the whole-workload numbers that
// have no bound; a traced run sets every per-layer metric.
func (r *result) printText() {
	for _, d := range allMetrics {
		v, set := r.metrics.value[d.Name]
		if !set {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", r.workload, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		if note := r.metrics.note[d.Name]; note != "" {
			line += "  # " + note
		}
		fmt.Println(line)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) jsonResult(defs []metricDef) jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{r.metrics.value[d.Name], d.Unit}
	}
	return out
}

// printJSONLine prints the result object the driver reads off the last
// line of standard output.
func (r *result) printJSONLine() {
	data, err := json.Marshal(r.jsonResult(r.reported()))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// writeJSONFile writes the same content as the text lines, per workload.
func writeJSONFile(path string, results []*result) error {
	doc := map[string]jsonResult{}
	for _, r := range results {
		var defs []metricDef
		for _, d := range allMetrics {
			if _, set := r.metrics.value[d.Name]; set {
				defs = append(defs, d)
			}
		}
		doc[r.workload] = r.jsonResult(defs)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeRaw writes the run's raw per-op samples, and its spans when it
// was traced, under dir.
func (r *result) writeRaw(dir string) error {
	f, err := os.Create(filepath.Join(dir, "samples-"+r.workload+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	rows := [][]string{{"workload", "class", "op", "seed", "start_ns", "dur_ns", "ok", "traced"}}
	for i, ph := range []*phase{&r.un, &r.tr} {
		for _, s := range ph.samples {
			rows = append(rows, []string{r.workload, s.class, strconv.Itoa(s.op), strconv.FormatInt(r.seed, 10),
				strconv.FormatInt(s.start.Nanoseconds(), 10), strconv.FormatInt(s.dur.Nanoseconds(), 10),
				strconv.FormatBool(s.ok), strconv.Itoa(i)})
		}
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	return writeSpans(filepath.Join(dir, "spans-"+r.workload+".json"), r.tr.spans)
}
