package perfbound_test

import (
	"context"
	"reflect"
	"testing"

	"paravis/internal/core"
	"paravis/internal/mem"
	"paravis/internal/perfbound"
	"paravis/internal/profile"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// TestZeroFieldsReadAsTheSimulatorReads checks that perfbound models the
// machine sim.Run runs: a configuration with a zero BRAMLatency, DRAM and
// profiling-unit sizes gives the same report as the same configuration
// after sim.Config.WithDefaults.
func TestZeroFieldsReadAsTheSimulatorReads(t *testing.T) {
	raw := sim.DefaultConfig()
	raw.BRAMLatency = 0
	raw.DRAM = mem.DRAMConfig{}
	raw.Profile = profile.Config{Enabled: true}
	for _, u := range workloads.Units() {
		prog, err := core.Build(context.Background(), u.Source, core.BuildOptions{Defines: u.Defines})
		if err != nil {
			t.Fatal(err)
		}
		got := perfbound.Analyze(prog.Kernel, prog.Sched, u.Params, perfbound.Config{Config: raw})
		want := perfbound.Analyze(prog.Kernel, prog.Sched, u.Params, perfbound.Config{Config: raw.WithDefaults()})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: zero fields give bracket %+v, the defaulted machine %+v", u.Name, got.Cycles, want.Cycles)
		}
	}
}
