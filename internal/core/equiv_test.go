package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestEquivalentCellsSimulateIdentically checks the rule a sweep relies on
// to skip simulations: every cell whose Representative is another cell
// gives a Result deep-equal to that cell's, Variant and Model aside —
// interval series, occupancy histograms and memory-system counters
// included. It runs every registered scheme under both models on all 14
// kernels and on 50 seeded random programs, under both warmup modes.
func TestEquivalentCellsSimulateIdentically(t *testing.T) {
	type program struct {
		name string
		prog *isa.Program
		init func(*isa.Memory)
		cfg  Config // budgets
	}
	var progs []program
	for _, wl := range workload.All() {
		prog, init := wl.Build()
		progs = append(progs, program{wl.Name, prog, init,
			Config{WarmupInstrs: 2000, MaxInstrs: 3000, IntervalCycles: 500}})
	}
	const randoms = 50
	for seed := 0; seed < randoms; seed++ {
		prog, init := workload.RandomProgram(rand.New(rand.NewSource(int64(seed))), workload.DefaultRandomOptions())
		progs = append(progs, program{"random", prog, init,
			Config{WarmupInstrs: 200, IntervalCycles: 100}}) // to halt
	}
	for _, mode := range []WarmupMode{WarmupDetailed, WarmupFunctional} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			var shared, fpShared int
			for i, p := range progs {
				fpFree := FPFree(p.prog)
				results := make(map[[2]int]Result)
				run := func(v Variant, m pipeline.AttackModel) Result {
					if r, ok := results[[2]int{int(v), int(m)}]; ok {
						return r
					}
					cfg := p.cfg
					cfg.Variant, cfg.Model, cfg.WarmupMode = v, m, mode
					r, err := NewMachine(cfg, p.prog, p.init).Run()
					if err != nil {
						t.Fatalf("%s #%d %v/%v: %v", p.name, i, v, m, err)
					}
					results[[2]int{int(v), int(m)}] = r
					return r
				}
				for _, v := range Registered() {
					for _, m := range bothModels {
						rv, rm := Representative(v, m, fpFree)
						if rv == v && rm == m {
							continue
						}
						shared++
						if rv != v {
							fpShared++
						}
						got, want := run(v, m), run(rv, rm)
						want.Variant, want.Model = v, m
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s #%d: %v/%v differs from its representative %v/%v: cycles %d vs %d",
								p.name, i, v, m, rv, rm, got.Cycles, want.Cycles)
						}
					}
				}
			}
			t.Logf("%d cells compared with their representative, %d by the FP clause", shared, fpShared)
			// Unsafe, SafeSpec and SpecBox drop Futuristic on every program;
			// STT{ld+fp} drops its FP rule on 10 kernels under both models,
			// and on some random programs.
			if min := len(progs)*3 + 10*2; shared < min || fpShared <= 10*2 {
				t.Errorf("%d cells shared a representative (%d by the FP clause), want at least %d (more than %d)",
					shared, fpShared, min, 10*2)
			}
		})
	}
}

// TestRepresentativeKeepsWhatMatters pins where the rule must not fire:
// the four kernels with FP transmitters keep STT{ld+fp}, and no scheme
// that tracks taint loses its attack model.
func TestRepresentativeKeepsWhatMatters(t *testing.T) {
	for _, name := range []string{"lbm_r", "namd_r", "cactuBSSN_r", "fotonik3d_r"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, _ := wl.Build()
		for _, m := range bothModels {
			if v, rm := Representative(STTLdFp, m, FPFree(prog)); v != STTLdFp || rm != m {
				t.Errorf("%s: STT{ld+fp}/%v represented by %v/%v", name, m, v, rm)
			}
		}
	}
	fpFree := 0
	for _, wl := range workload.All() {
		if prog, _ := wl.Build(); FPFree(prog) {
			fpFree++
		}
	}
	if fpFree != 10 {
		t.Errorf("%d kernels have no FP transmitter, want 10", fpFree)
	}
	for _, v := range Registered() {
		if !pipelineConfig(Config{Variant: v}, nil).Scheme.TracksTaint() {
			continue
		}
		for _, free := range []bool{false, true} {
			if _, m := Representative(v, pipeline.Futuristic, free); m != pipeline.Futuristic {
				t.Errorf("%v tracks taint but is represented under %v", v, m)
			}
		}
	}
}
