package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// TestSampledExportGolden pins the bytes of the benchmark's sampled-cold
// request — the four bench kernels × every registered scheme × both
// attack models at the product-default budgets, sampling seeds 1..3 — as
// the SHA-256 of each seed's JSON export. bench/ only checks a sampled
// export to within 6 % of expected_results.txt; this is the test that
// says a host-side change (how the memory image is built, shared and
// restored) moved no simulated byte. The digests were recorded at commit
// 1edfc6a, before memory images became copy-on-write; regenerate with
// -update only for a deliberate, documented semantics change.
func TestSampledExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three product-default sampled grids")
	}
	var wls []workload.Workload
	for _, name := range []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"} {
		wls = append(wls, byName(t, name))
	}
	var got bytes.Buffer
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := Run(Options{
			WarmupInstrs: DefaultOptions().WarmupInstrs,
			MaxInstrs:    DefaultOptions().MaxInstrs,
			SimMode:      SimSampled,
			Sample:       simpoint.Config{Seed: seed},
			Workloads:    wls,
			Variants:     core.Registered(),
			Models:       []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic},
			Parallel:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "sample_seed=%d sha256=%x bytes=%d\n", seed, sha256.Sum256(buf.Bytes()), buf.Len())
	}
	golden := filepath.Join("testdata", "sampled_export.sha256")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s\n%s", golden, got.Bytes())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sampled exports diverge from the golden recorded at the parent commit:\ngot:\n%swant:\n%s", got.Bytes(), want)
	}
}
