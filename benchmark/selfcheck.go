package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is BENCHMARK.json, as far as the runner reads it.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest finds BENCHMARK.json at the repository root, one level
// above the benchmark's directory, or in the working directory.
func readManifest() (*manifest, error) {
	var data []byte
	var err error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// selfCheck is the A/A test: the untraced suite twice, back to back, on
// the same code. It prints both values of every end-to-end metric, how
// far the second is worse than the first as a share of the first, and the
// declared bound, and reports whether every pair stayed inside it.
func selfCheck(wls []workload, seed int64, seconds float64, outDir string) bool {
	mf, err := readManifest()
	if err != nil {
		fatal(err)
	}
	ok := true
	fmt.Println("workload metric first second worse_by bound verdict")
	for _, wl := range wls {
		var runs [2]*result
		for i := range runs {
			if runs[i], err = runWorkload(wl, seed, seconds, false, outDir, setupReps); err != nil {
				fatal(err)
			}
			ok = ok && runs[i].correct()
		}
		for _, d := range mf.EndToEnd {
			a, b := runs[0].metrics.value[d.Name], runs[1].metrics.value[d.Name]
			worse := ratio(b-a, a)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Printf("%s %s %.6g %.6g %+.4f %.2f %s\n", wl.name, d.Name, a, b, worse, d.Bound, verdict)
		}
	}
	return ok
}
