package api

import (
	"math"

	"paravis/internal/autotune"
	"paravis/internal/core"
	"paravis/internal/transform"
)

// OptimizeRequest asks the daemon to search the transformation space of
// one kernel (POST /v1/optimize, schema v4). The search mirrors
// nymbleopt: same engine, same defaults, byte-identical report.
type OptimizeRequest struct {
	SchemaVersion int               `json:"version"`
	Name          string            `json:"name,omitempty"`
	Source        string            `json:"source"`
	Defines       map[string]string `json:"defines,omitempty"`
	VectorLanes   int               `json:"vector_lanes,omitempty"`
	// Params / Floats are scalar launch arguments by parameter name.
	Params map[string]int64   `json:"params,omitempty"`
	Floats map[string]float64 `json:"floats,omitempty"`
	// Budget caps the simulator confirmations (0 = default 32).
	Budget int `json:"budget,omitempty"`
	// MaxRounds caps the greedy rounds (0 = default 8).
	MaxRounds int `json:"max_rounds,omitempty"`
	// TimeoutMs bounds the wall-clock search time; past it the job fails
	// with kind "deadline".
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Wait makes POST /v1/optimize synchronous.
	Wait bool `json:"wait,omitempty"`
}

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
	// won; the CLI writes it next to the input, the daemon stores it as
	// an artifact).
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
}

// OptimizeReport is nymbleopt's -json output and the daemon's
// /v1/optimize response (schema v4).
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

// StoredOptimize is the summary document persisted next to an optimize
// job's artifacts in the store; a warm hit rebuilds the job document
// from it without re-running the search.
type StoredOptimize struct {
	SchemaVersion int          `json:"version"`
	Unit          OptimizeUnit `json:"unit"`
	Artifacts     []string     `json:"artifacts,omitempty"`
}

// OptimizeKey is the content address of a whole search: a hex SHA-256
// over the compile key plus every request field that changes the
// search's outcome. Two OptimizeRequests with equal keys produce
// byte-identical reports (the search is deterministic), so the key is
// what the artifact store and run coalescing hash on. Transport fields
// (Wait, TimeoutMs, Name) deliberately do not participate.
func OptimizeKey(r *OptimizeRequest) string {
	d := core.NewDigest()
	d.Str(core.Key(r.Source, core.BuildOptions{Defines: r.Defines, VectorLanes: r.VectorLanes}))
	core.DigestMap(d, r.Params, func(v int64) { d.Uint(uint64(v)) })
	core.DigestMap(d, r.Floats, func(v float64) { d.Uint(math.Float64bits(v)) })
	d.Uint(uint64(r.Budget))
	d.Uint(uint64(r.MaxRounds))
	return d.Sum()
}
