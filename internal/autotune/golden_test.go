package autotune_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"paravis/internal/api"
	"paravis/internal/autotune"
	"paravis/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden optimize reports")

// TestGoldenOptimizeReports pins the full wire-form search report for
// every seed workload at a small fixed budget. The reports double as
// the determinism contract: any change to candidate enumeration order,
// pruning, tie-breaking or the v4 schema shows up as a golden diff.
// Regenerate with:
//
//	go test ./internal/autotune/ -run TestGoldenOptimizeReports -update
func TestGoldenOptimizeReports(t *testing.T) {
	if testing.Short() {
		t.Skip("searches all seed workloads")
	}
	for _, u := range workloads.Units() {
		t.Run(u.Name, func(t *testing.T) {
			res, err := autotune.Optimize(context.Background(), u.Name, u.Source, autotune.Options{
				Defines: u.Defines,
				Params:  u.Params,
				Floats:  u.Floats,
				Budget:  autotune.Budget{Candidates: 4},
			})
			unit := api.NewOptimizeUnit(u.Name, res, err)
			var got bytes.Buffer
			if err := api.Encode(&got, api.OptimizeReport{
				SchemaVersion: api.Version,
				Units:         []api.OptimizeUnit{unit},
			}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "optimize-"+u.Name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report differs from %s (regenerate with -update if the change is intended)\n got: %s\nwant: %s",
					path, got.Bytes(), want)
			}
		})
	}
}
