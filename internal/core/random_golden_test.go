package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/random_program_stats.sha256")

// TestRandomProgramStatsGolden pins the simulated outcome of the programs no
// kernel golden reaches: the seeded RandomPrograms the scan oracle steps
// (TestWorkListsMatchROBScan), run to halt under every registered scheme and
// both attack models, as one SHA-256 over each run's Result.Stats and final
// registers. At the recording commit the 4,000 runs contain 1,469
// memory-order squashes, most raised from issueStore in the middle of the
// issue stage's walk. The digests were recorded at commit b9f0c24, before the
// issue queue became a ready bitmap with per-producer wake lists; regenerate
// with -update (un-short) only for a deliberate, documented semantics change.
// -short runs the first 20 seeds against their own recorded digest.
func TestRandomProgramStatsGolden(t *testing.T) {
	const full, short = 200, 20
	programs := full
	if testing.Short() {
		programs = short
	}
	h := sha256.New()
	var got bytes.Buffer
	var memOrder uint64
	for seed := 0; seed < programs; seed++ {
		prog, init := workload.RandomProgram(rand.New(rand.NewSource(int64(seed))), workload.DefaultRandomOptions())
		for _, v := range Registered() {
			for _, mdl := range bothModels {
				m := NewMachine(Config{Variant: v, Model: mdl}, prog, init)
				res, err := m.Run()
				if err != nil {
					t.Fatalf("seed %d %v/%v: %v", seed, v, mdl, err)
				}
				memOrder += res.SquashesByCause()["mem-order"]
				fmt.Fprintf(h, "%d %v %v %+v %v\n", seed, v, mdl, res.Stats, m.Regs())
			}
		}
		if seed+1 == short || seed+1 == full {
			fmt.Fprintf(&got, "seeds=%d sha256=%x\n", seed+1, h.Sum(nil)) // Sum leaves the running state alone
		}
	}
	t.Logf("%d runs, %d memory-order squashes", programs*len(Registered())*len(bothModels), memOrder)

	golden := filepath.Join("testdata", "random_program_stats.sha256")
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full seed set: run without -short")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
	if !bytes.HasPrefix(want, got.Bytes()) {
		t.Fatalf("random-program statistics diverge from the golden recorded at the parent commit:\ngot:\n%swant:\n%s", got.Bytes(), want)
	}
}
