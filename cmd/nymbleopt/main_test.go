package main

import (
	"maps"
	"testing"

	"paravis/internal/cli"
)

// TestSearchOptionsApplyFlagsToSeeds: -budget and -rounds reach the
// search of a seed workload unit exactly as they reach a file's, next to
// the unit's canonical launch arguments.
func TestSearchOptionsApplyFlagsToSeeds(t *testing.T) {
	units, err := cli.Units(true, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		o := searchOptions(u, 8, 3)
		if o.MaxRounds != 3 || o.Budget.Candidates != 8 {
			t.Errorf("%s: rounds %d, budget %d; want 3 and 8", u.Name, o.MaxRounds, o.Budget.Candidates)
		}
		if !maps.Equal(o.Defines, u.Defines) || !maps.Equal(o.Params, u.Params) || !maps.Equal(o.Floats, u.Floats) {
			t.Errorf("%s: options %+v lost the unit's launch arguments", u.Name, o)
		}
	}
}
