package api

import (
	"paravis/internal/autotune"
	"paravis/internal/transform"
)

// OptimizeStep is the wire form of one applied transformation.
type OptimizeStep struct {
	Pass string `json:"pass"`
	// Loop is the "for@line:col" name of the target loop in the source
	// the step was applied to.
	Loop string `json:"loop"`
	// Params are the pass parameters (unroll factor, tile size, …); map
	// keys marshal sorted, so the encoding is byte-stable.
	Params map[string]int64 `json:"params,omitempty"`
}

// OptimizeCandidate is one explored point of the search space: the
// transformation sequence, the static cycle bracket that ranked it, the
// simulator measurement when one was spent on it, and the verdict.
type OptimizeCandidate struct {
	Name       string         `json:"name"`
	Steps      []OptimizeStep `json:"steps"`
	PredLower  int64          `json:"pred_lower,omitempty"`
	PredUpper  int64          `json:"pred_upper,omitempty"`
	UpperKnown bool           `json:"upper_known,omitempty"`
	Cycles     int64          `json:"cycles,omitempty"`
	Simulated  bool           `json:"simulated"`
	Verdict    string         `json:"verdict"`
	Note       string         `json:"note,omitempty"`
}

// OptimizeUnit is one searched kernel in a report.
type OptimizeUnit struct {
	Name           string              `json:"name"`
	Kernel         string              `json:"kernel,omitempty"`
	BaselineCycles int64               `json:"baseline_cycles,omitempty"`
	Winner         string              `json:"winner,omitempty"`
	WinnerCycles   int64               `json:"winner_cycles,omitempty"`
	WinnerSteps    []OptimizeStep      `json:"winner_steps,omitempty"`
	WinnerLower    int64               `json:"winner_lower,omitempty"`
	WinnerUpper    int64               `json:"winner_upper,omitempty"`
	UpperKnown     bool                `json:"winner_upper_known,omitempty"`
	SimsRun        int                 `json:"sims_run"`
	Rounds         int                 `json:"rounds"`
	Candidates     []OptimizeCandidate `json:"candidates"`
	// Source is the winning transformed kernel (empty when the baseline
	// won; nymbleopt -o writes it next to the input).
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
}

// OptimizeReport is nymbleopt's -json output (schema v4).
type OptimizeReport struct {
	SchemaVersion int            `json:"version"`
	Units         []OptimizeUnit `json:"units"`
}

func newOptimizeSteps(steps []transform.Step) []OptimizeStep {
	out := make([]OptimizeStep, 0, len(steps))
	for _, s := range steps {
		out = append(out, OptimizeStep{Pass: s.Pass, Loop: s.Loop, Params: s.Params})
	}
	return out
}

// NewOptimizeUnit converts one search result to its wire form; err is
// the search-level failure when the baseline did not build or run.
func NewOptimizeUnit(name string, res *autotune.Result, err error) OptimizeUnit {
	u := OptimizeUnit{Name: name, Candidates: []OptimizeCandidate{}}
	if err != nil {
		u.Error = err.Error()
		return u
	}
	u.Kernel = res.Kernel
	u.BaselineCycles = res.BaselineCycles
	u.Winner = res.Winner
	u.WinnerCycles = res.WinnerCycles
	u.WinnerLower = res.WinnerLower
	u.WinnerUpper = res.WinnerUpper
	u.UpperKnown = res.WinnerUpperKnown
	u.SimsRun = res.SimsRun
	u.Rounds = res.Rounds
	if res.Winner != "" {
		u.WinnerSteps = newOptimizeSteps(res.WinnerSteps)
		u.Source = res.WinnerSource
	}
	for _, c := range res.Candidates {
		u.Candidates = append(u.Candidates, OptimizeCandidate{
			Name:       c.Name,
			Steps:      newOptimizeSteps(c.Steps),
			PredLower:  c.PredLower,
			PredUpper:  c.PredUpper,
			UpperKnown: c.UpperKnown,
			Cycles:     c.Cycles,
			Simulated:  c.Simulated,
			Verdict:    c.Verdict,
			Note:       c.Note,
		})
	}
	return u
}
