package harness

import (
	"testing"

	"repro/internal/simpoint"
	"repro/internal/workload"
)

// TestTunedSampleConfigTable pins the contract of the per-workload
// tuning table: every suite workload resolves to a fully defaulted
// config, tuned entries actually differ where claimed, and explicitly
// set fields always win over the table.
func TestTunedSampleConfigTable(t *testing.T) {
	for _, wl := range workload.All() {
		cfg := TunedSampleConfig(wl.Name, simpoint.Config{})
		if cfg.IntervalInstrs == 0 || cfg.MaxK <= 0 || cfg.Seed == 0 {
			t.Errorf("%s: unresolved tuned config %+v", wl.Name, cfg)
		}
	}

	// Tuned entries diverge from the one-size defaults in both directions.
	def := simpoint.Config{}.WithDefaults()
	if got := TunedSampleConfig("mcf_r", simpoint.Config{}); got.IntervalInstrs >= def.IntervalInstrs {
		t.Errorf("mcf_r tuned interval %d not finer than default %d",
			got.IntervalInstrs, def.IntervalInstrs)
	}
	if got := TunedSampleConfig("lbm_r", simpoint.Config{}); got.IntervalInstrs <= def.IntervalInstrs || got.MaxK >= def.MaxK {
		t.Errorf("lbm_r tuned config %+v not coarser/cheaper than defaults", got)
	}

	// Unknown workloads fall back to the package defaults.
	got := TunedSampleConfig("no-such-workload", simpoint.Config{})
	want := simpoint.Config{}.WithDefaults()
	if got != want {
		t.Errorf("unknown workload: got %+v, want package defaults %+v", got, want)
	}

	// Explicit fields pass through untouched on every workload.
	pin := simpoint.Config{IntervalInstrs: 1234, MaxK: 3, Seed: 7}
	for _, name := range []string{"mcf_r", "lbm_r", "no-such-workload"} {
		if got := TunedSampleConfig(name, pin); got != pin {
			t.Errorf("%s: explicit config rewritten: got %+v, want %+v", name, got, pin)
		}
	}
}
