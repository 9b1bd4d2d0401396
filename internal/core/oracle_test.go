package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

var bothModels = []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic}

// benchKernels are the four kernels of the Figure 6 benchmark grid, one
// per memory behaviour.
var benchKernels = []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"}

// TestWorkListsMatchROBScan is the list ≡ scan oracle: the pipeline's work
// lists, the issue queue's partition into ready set and waiter lists, and the
// incremental frontier are recomputed by brute force from the ROB
// (Core.CheckInvariants) after every cycle of seeded random programs, under
// every registered scheme (one parallel sub-test each) and both attack models.
func TestWorkListsMatchROBScan(t *testing.T) {
	programs := 200
	if testing.Short() {
		programs = 20
	}
	for _, v := range Registered() {
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < programs; seed++ {
				prog, init := workload.RandomProgram(rand.New(rand.NewSource(int64(seed))), workload.DefaultRandomOptions())
				for _, mdl := range bothModels {
					m := NewMachine(Config{Variant: v, Model: mdl}, prog, init)
					c := m.Core()
					for !c.Halted() {
						if err := c.Step(); err != nil {
							t.Fatalf("seed %d %v: %v", seed, mdl, err)
						}
						if err := c.CheckInvariants(); err != nil {
							t.Fatalf("seed %d %v cycle %d: %v", seed, mdl, c.Cycle(), err)
						}
					}
				}
			}
		})
	}
}

// runObserved is everything a run exposes: statistics, interval series,
// occupancy histograms and final registers.
type runObserved struct {
	res  Result
	regs [32]uint64
}

// TestStepLoopEqualsRun: Step is an exact single cycle, Run may skip
// stalled spans — both must observe the same machine. The Step side
// replays Machine.Run by hand (warm-up, interval sampling, measurement
// window); Result.Stats, the interval series, both occupancy histograms
// and the final registers must be identical.
func TestStepLoopEqualsRun(t *testing.T) {
	const warmup, window, every = 5_000, 8_000, 500
	for _, k := range benchKernels {
		wl, err := workload.ByName(k)
		if err != nil {
			t.Fatal(err)
		}
		prog, init := wl.Build()
		for _, v := range []Variant{Unsafe, STTLdFp, Hybrid, SafeSpec, SpecBox} {
			for _, mdl := range bothModels {
				cfg := Config{Variant: v, Model: mdl, WarmupInstrs: warmup, MaxInstrs: window, IntervalCycles: every}
				name := fmt.Sprintf("%s/%v/%v", k, v, mdl)

				fast := NewMachine(cfg, prog, init)
				fr, err := fast.Run()
				if err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
				got := runObserved{fr, fast.Regs()}

				slow := NewMachine(cfg, prog, init)
				c := slow.Core()
				for !c.Halted() && c.Stats().Committed < warmup {
					if err := c.Step(); err != nil {
						t.Fatalf("%s: warm-up Step: %v", name, err)
					}
				}
				base := c.Stats()
				ic := newIntervalCollector(slow.Hierarchy())
				c.EnableIntervalSampling(every, ic.collect)
				for !c.Halted() && c.Stats().Committed < warmup+window {
					if err := c.Step(); err != nil {
						t.Fatalf("%s: Step: %v", name, err)
					}
				}
				c.FlushInterval()
				st := c.Stats()
				st.Halted = c.Halted()
				rob, lq := c.OccupancyHistograms()
				want := runObserved{regs: slow.Regs()}
				want.res.Stats = st.Sub(base)
				want.res.Intervals = ic.points
				want.res.ROBOccHist, want.res.LQOccHist = rob[:], lq[:]

				if got.res.Stats != want.res.Stats {
					t.Errorf("%s: stats differ\n Run:  %+v\n Step: %+v", name, got.res.Stats, want.res.Stats)
				}
				if !reflect.DeepEqual(got.res.Intervals, want.res.Intervals) {
					t.Errorf("%s: interval series differ (%d vs %d points)", name, len(got.res.Intervals), len(want.res.Intervals))
				}
				if !reflect.DeepEqual(got.res.ROBOccHist, want.res.ROBOccHist) || !reflect.DeepEqual(got.res.LQOccHist, want.res.LQOccHist) {
					t.Errorf("%s: occupancy histograms differ\n Run:  %v %v\n Step: %v %v", name,
						got.res.ROBOccHist, got.res.LQOccHist, want.res.ROBOccHist, want.res.LQOccHist)
				}
				if got.regs != want.regs {
					t.Errorf("%s: final registers differ", name)
				}
			}
		}
	}
}

// eventStreamGolden is the SHA-256 of the all-class JSONL event stream of
// mcf_r / Hybrid / Futuristic (5k detailed warm-up + 2k measured
// instructions), recorded at the commit before the pipeline became
// event-driven: same events, same cycles, same order.
const eventStreamGolden = "8ca5665efaaa1f2948bcaa657a84756c0fbff83d99cbeb63cdc9d813f4d495aa"

func TestEventStreamGolden(t *testing.T) {
	wl, err := workload.ByName("mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, init := wl.Build()
	m := NewMachine(Config{Variant: Hybrid, Model: pipeline.Futuristic, WarmupInstrs: 5_000, MaxInstrs: 2_000}, prog, init)
	var buf bytes.Buffer
	rec := obs.NewRecorder(obs.ClassAll, obs.NewJSONLSink(&buf))
	m.SetObserver(rec)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != eventStreamGolden {
		t.Errorf("event stream hash %s (%d bytes, %d lines), want %s",
			got, buf.Len(), bytes.Count(buf.Bytes(), []byte("\n")), eventStreamGolden)
	}
}

// TestStepDoesNotAllocate is the allocation guard: once a machine is warm,
// stepping it allocates nothing — fetch buffer, issue/load/store queues
// and work lists are fixed-capacity, and the decoded program is built
// once by pipeline.New. testing.AllocsPerRun counts every allocation of
// the process, and under load the runtime makes a few of its own beside a
// window; so the same window is measured on three freshly built,
// identically warmed machines, and the test fails only if all three
// allocated. Step is deterministic: an allocation of its own repeats in
// every window. STT{ld} and Static L2 grow the parked-squash, Obl-Ld and
// FP lists; Unsafe and Hybrid are the emptiest and the fullest IQ.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		v      Variant
	}{{"deepsjeng_r", Unsafe}, {"mcf_r", STTLd}, {"mcf_r", StaticL2}, {"mcf_r", Hybrid}} {
		wl, err := workload.ByName(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		prog, init := wl.Build()
		var allocs [3]float64
		for i := range allocs {
			c := NewMachine(Config{Variant: tc.v, Model: pipeline.Futuristic}, prog, init).Core()
			if err := c.RunUntilCommitted(20_000); err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(1, func() {
				for i := 0; i < 10_000; i++ {
					if err := c.Step(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		if min(allocs[0], allocs[1], allocs[2]) != 0 {
			t.Errorf("%s/%v: %v allocations over 10k warm Steps on three machines, want 0 on at least one", tc.kernel, tc.v, allocs)
		}
	}
}
