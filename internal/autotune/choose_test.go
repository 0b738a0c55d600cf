package autotune

import (
	"fmt"
	"testing"

	"paravis/internal/perfbound"
)

// TestChooseIsPruneThenSelect pins how a round picks what to simulate: a
// candidate whose lower bound cannot beat the best is pruned wherever it
// sits, and the budget counts only the candidates left after pruning.
func TestChooseIsPruneThenSelect(t *testing.T) {
	const p, b, k = VerdictPruned, VerdictBudget, ""
	cases := []struct {
		name   string
		lowers []int64 // sorted, as the search sorts eligible candidates
		best   int64
		left   int
		want   []string // k: kept for simulation
	}{
		{"pruned inside the first left", []int64{10, 20, 30, 40}, 25, 3, []string{k, k, p, p}},
		{"first candidate pruned", []int64{30, 40, 50}, 25, 2, []string{p, p, p}},
		{"ties with the best are pruned", []int64{10, 25, 25, 25}, 25, 3, []string{k, p, p, p}},
		{"nothing pruned, over budget", []int64{10, 20, 30, 40}, 100, 2, []string{k, k, b, b}},
		{"pruned past the budget", []int64{10, 20, 30, 40}, 35, 2, []string{k, k, b, p}},
		{"budget larger than the list", []int64{10, 20, 30}, 25, 8, []string{k, k, p}},
		{"budget of one", []int64{10, 20, 30}, 15, 1, []string{k, p, p}},
		{"no budget left", []int64{10, 20}, 25, 0, []string{b, b}},
		{"no candidates", nil, 25, 4, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			es := make([]*explored, len(tc.lowers))
			for i, lo := range tc.lowers {
				es[i] = &explored{
					cand:   Candidate{Name: fmt.Sprintf("c%d", i), PredLower: lo},
					bounds: perfbound.CycleBounds{Lower: lo},
					ok:     true,
				}
			}
			kept := map[*explored]bool{}
			for _, e := range choose(es, tc.best, tc.left) {
				kept[e] = true
			}
			for i, e := range es {
				got := e.cand.Verdict
				if got == k && !kept[e] || got != k && kept[e] {
					t.Errorf("%s: verdict %q but kept = %v", e.cand.Name, got, kept[e])
				}
				if got != tc.want[i] {
					t.Errorf("%s (lower %d): verdict %q, want %q", e.cand.Name, tc.lowers[i], got, tc.want[i])
				}
				want := ""
				switch got {
				case p:
					want = fmt.Sprintf("lower bound %d ≥ best %d", tc.lowers[i], tc.best)
				case b:
					want = "simulator budget exhausted"
				}
				if e.cand.Note != want {
					t.Errorf("%s: note %q, want %q", e.cand.Name, e.cand.Note, want)
				}
			}
		})
	}
}
