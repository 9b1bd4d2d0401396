package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
)

// TestCacheKeyGolden pins the content-addressed key of six representative
// specs to the hex values recorded when RunSpec still lived in the
// simulation service. Every persisted -cache file is indexed by these
// keys: a change that moves them (a schema bump included) must be
// deliberate, and must update this table.
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
