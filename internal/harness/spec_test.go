package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// TestCacheKeyGolden pins the content-addressed key of six representative
// specs to the hex values recorded when RunSpec still lived in the
// simulation service, and checks that a cell equivalent to one of them
// keys as it does. Every persisted -cache file is indexed by these keys:
// a change that moves them (a schema bump included) must be deliberate,
// and must update this table.
func TestCacheKeyGolden(t *testing.T) {
	tuned := TunedSampleConfig("mcf_r", simpoint.Config{})
	for _, tc := range []struct {
		name string
		spec RunSpec
		want string
	}{
		{"detailed", RunSpec{Workload: "mcf_r", Variant: core.Hybrid, Model: pipeline.Spectre,
			WarmupInstrs: 50_000, MaxInstrs: 60_000},
			"bbe2e2cdc6144c60e75c308990b12efc5111923c331bf4bb7cd34b5040c3db2f"},
		{"functional-warmup", RunSpec{Workload: "x264_r", Variant: core.STTLd, Model: pipeline.Futuristic,
			WarmupInstrs: 10_000, MaxInstrs: 8_000, WarmupMode: core.WarmupFunctional},
			"6a0b40a506efd0b34723db21b3e85fe5efbe8628aad0508f28a9cfc7ae9622ac"},
		{"sampled-explicit", RunSpec{Workload: "gcc_r", Variant: core.Unsafe, Model: pipeline.Spectre,
			WarmupInstrs: 20_000, MaxInstrs: 40_000,
			SimMode: SimSampled, SampleInterval: 2000, SampleMaxK: 4, SampleSeed: 7},
			"3dca79a2a419cd3e1ed49bfe1787e01dd32d301bb128df4f4344d6abd9e97e6d"},
		// Unsafe never reads the model: the Futuristic cell keys as its
		// representative, the row above.
		{"sampled-explicit-futuristic", RunSpec{Workload: "gcc_r", Variant: core.Unsafe, Model: pipeline.Futuristic,
			WarmupInstrs: 20_000, MaxInstrs: 40_000,
			SimMode: SimSampled, SampleInterval: 2000, SampleMaxK: 4, SampleSeed: 7},
			"3dca79a2a419cd3e1ed49bfe1787e01dd32d301bb128df4f4344d6abd9e97e6d"},
		{"sampled-tuned", RunSpec{Workload: "mcf_r", Variant: core.StaticL2, Model: pipeline.Futuristic,
			WarmupInstrs: 20_000, MaxInstrs: 40_000,
			SimMode: SimSampled, SampleInterval: tuned.IntervalInstrs, SampleMaxK: tuned.MaxK, SampleSeed: tuned.Seed},
			"6f580377ec0b90bd24b2df24bb4b8d3eb7ea313391156e7f31add6799f0ee745"},
		{"interval-cycles", RunSpec{Workload: "deepsjeng_r", Variant: core.Perfect, Model: pipeline.Spectre,
			WarmupInstrs: 2000, MaxInstrs: 6000, IntervalCycles: 500},
			"b9a5e1d453a24fd60cc96c92561b76859884f4f79cbb3d4ad952df4a41d7b14c"},
		{"ablation", RunSpec{Workload: "xalancbmk_r", Variant: core.Hybrid, Model: pipeline.Spectre,
			WarmupInstrs: 50_000, MaxInstrs: 60_000, Ablate: core.Ablation{NoImplicitChannelProtection: true}},
			"9713d5654c24c00f4a7c6bceb19f6f765fcdfc71fe9813fc53da83b08d90a83f"},
	} {
		got, err := tc.spec.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: CacheKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSpecsShareRepresentatives counts the simulations a sweep saves: of
// the full grid's 224 cells 34 share a representative (Unsafe under
// Futuristic on all 14 kernels, STT{ld+fp} under both models on the 10
// kernels without FP transmitters), of the four ledger kernels' 64 cells
// 12. Every representative is itself a cell of the grid, and a spec that
// names no suite workload is its own representative.
func TestSpecsShareRepresentatives(t *testing.T) {
	ledger := DefaultOptions()
	ledger.Workloads = nil
	for _, name := range []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ledger.Workloads = append(ledger.Workloads, wl)
	}
	for _, tc := range []struct {
		name         string
		opt          Options
		cells, steps int
	}{{"full", DefaultOptions(), 224, 190}, {"ledger", ledger, 64, 52}} {
		specs := tc.opt.Specs()
		in := make(map[RunSpec]bool)
		for _, s := range specs {
			in[s] = true
		}
		groups := groupByRepresentative(specs)
		if len(specs) != tc.cells || len(groups) != tc.steps {
			t.Errorf("%s: %d cells in %d groups, want %d in %d", tc.name, len(specs), len(groups), tc.cells, tc.steps)
		}
		for _, g := range groups {
			if rep := g[0].Representative(); !in[rep] || rep.Representative() != rep {
				t.Errorf("%s: representative %+v is not a grid cell that represents itself", tc.name, rep)
			}
		}
	}
	odd := RunSpec{Workload: "no-such-kernel", Variant: core.Unsafe, Model: pipeline.Futuristic}
	if odd.Representative() != odd {
		t.Error("a spec naming no suite workload has another representative")
	}
}
