package main

import (
	_ "embed"
	"encoding/json"

	"paravis/internal/transform"
)

//go:embed expected.json
var expectedJSON []byte

// unitPin pins the simulated statistics of one run. They are properties
// of the simulated hardware, so a faster simulator leaves them alone.
type unitPin struct {
	Cycles           int64 `json:"cycles"`
	DRAMTransactions int64 `json:"dram_transactions"`
	FpOps            int64 `json:"fp_ops"`
}

// expectedDoc is expected.json: the pinned simulated statistics every
// run is checked against. Byte digests of traces and reports are left
// out on purpose: later changes add event types and tighten brackets.
type expectedDoc struct {
	// Units are the six seed units at their canonical parameters, with
	// the profiling unit on and off.
	Units map[string]struct {
		Profiled   unitPin `json:"profiled"`
		Unprofiled unitPin `json:"unprofiled"`
	} `json:"units"`
	// PiDense is trace_export's second source: pi at 409600 steps with a
	// 64-cycle sample period.
	PiDense unitPin `json:"pi_dense"`
	// Optimize is the DIM=32 search over naive GEMM.
	Optimize struct {
		BaselineCycles int64            `json:"baseline_cycles"`
		WinnerCycles   int64            `json:"winner_cycles"`
		WinnerSteps    []transform.Step `json:"winner_steps"`
		SimsRun        int              `json:"sims_run"`
	} `json:"optimize"`
}

var expected = func() expectedDoc {
	var doc expectedDoc
	if err := json.Unmarshal(expectedJSON, &doc); err != nil {
		panic("benchmark: expected.json: " + err.Error())
	}
	return doc
}()
