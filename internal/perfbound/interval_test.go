package perfbound

import (
	"math"
	"testing"

	"paravis/internal/interval"
	"paravis/internal/ir"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ n, d, want int64 }{
		{0, 8, 0}, {-5, 8, 0}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2},
		{64, 8, 8}, {63, 8, 8}, {65, 8, 9}, {7, 0, 0},
	}
	for _, c := range cases {
		if got := ceilDiv(c.n, c.d); got != c.want {
			t.Errorf("ceilDiv(%d,%d)=%d want %d", c.n, c.d, got, c.want)
		}
	}
}

// TestOverflowDropsBound pins the lattice's one overflow rule as the
// evaluator meets it: a bound that would overflow int64 is dropped, and a
// trip count without both bounds is unknown, so the loop falls through
// to the hint tier.
func TestOverflowDropsBound(t *testing.T) {
	if r := interval.Exact(math.MaxInt64).Add(interval.Range(0, 1)); r.HasHi || !r.HasLo || r.Lo != math.MaxInt64 {
		t.Errorf("MaxInt64 + [0, 1] = %v, want [MaxInt64, +inf]", r)
	}
	// for (i = init; i < 10; i++) with init in [MinInt64+1, 20]: the cond
	// is undecidable on entry, and the most trips, 10 - (MinInt64+1),
	// overflows.
	g, s := loopShape{cmp: ir.OpLt}.build()
	cg := compile(g, s, nil, 64)
	cg.liveIn[0], cg.liveIn[1], cg.init[0] = interval.Exact(10), interval.Exact(1), interval.Range(math.MinInt64+1, 20)
	tc := treeCtx{tid: interval.Exact(0), nthreads: interval.Exact(1)}
	if trips := cg.loopTrips(&tc, nil); trips.Bounded() {
		t.Errorf("trips = %v, want unknown", trips)
	}
	hint := interval.Range(3, 40)
	if trips := cg.loopTrips(&tc, map[string]interval.Interval{g.Name: hint}); trips != hint {
		t.Errorf("hinted trips = %v, want the hint %v", trips, hint)
	}
}
