package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestRestoreEquivalence asserts the checkpoint soundness contract:
// capturing functional warmup once and restoring it into a fresh machine
// yields bit-identical results to performing the functional warmup in
// place — for every variant and attack model sharing the checkpoint.
func TestRestoreEquivalence(t *testing.T) {
	wl, err := workload.ByName("mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		WarmupInstrs: 10_000,
		WarmupMode:   WarmupFunctional,
		MaxInstrs:    5_000,
	}
	prog, init := wl.Build()
	ck := CaptureCheckpoint(base, prog, init)
	if ck.Arch.Instrs != base.WarmupInstrs {
		t.Fatalf("checkpoint executed %d warmup instructions, want exactly %d",
			ck.Arch.Instrs, base.WarmupInstrs)
	}

	// Round-trip the checkpoint through its serialized form so the restore
	// path under test is the one a persisted checkpoint would take.
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err = arch.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range []Variant{Unsafe, STTLd, Hybrid, Perfect} {
		for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
			cfg := base
			cfg.Variant, cfg.Model = v, m

			inPlace := NewMachine(cfg, prog, init)
			want, err := inPlace.Run()
			if err != nil {
				t.Fatalf("%v/%v in-place: %v", v, m, err)
			}

			restored := NewMachine(cfg, prog, init)
			if err := restored.Restore(ck); err != nil {
				t.Fatalf("%v/%v restore: %v", v, m, err)
			}
			got, err := restored.Run()
			if err != nil {
				t.Fatalf("%v/%v restored run: %v", v, m, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%v/%v: restored result differs from in-place warmup:\nwant %+v\ngot  %+v", v, m, want, got)
			}
		}
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	wl, err := workload.ByName("xz_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, init := wl.Build()
	ck := CaptureCheckpoint(Config{WarmupInstrs: 1000}, prog, init)

	detailed := NewMachine(Config{WarmupInstrs: 1000, MaxInstrs: 100}, prog, init)
	if err := detailed.Restore(ck); err == nil {
		t.Error("Restore accepted a detailed-warmup machine")
	}
	wrongBudget := NewMachine(Config{WarmupInstrs: 2000, WarmupMode: WarmupFunctional, MaxInstrs: 100}, prog, init)
	if err := wrongBudget.Restore(ck); err == nil {
		t.Error("Restore accepted a mismatched warmup budget")
	}
}

// TestFunctionalWarmupExactWindow asserts the handoff is exact: with
// functional warmup the detailed pipeline's budget is the measurement
// window alone, so it commits at least MaxInstrs (detailed warmup can
// eat up to commit-width instructions out of the window).
func TestFunctionalWarmupExactWindow(t *testing.T) {
	wl, err := workload.ByName("deepsjeng_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, init := wl.Build()
	cfg := Config{
		Variant:      Hybrid,
		WarmupInstrs: 20_000,
		WarmupMode:   WarmupFunctional,
		MaxInstrs:    8_000,
	}
	m := NewMachine(cfg, prog, init)
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("measurement window committed %d < budget %d", r.Committed, cfg.MaxInstrs)
	}
}

// BenchmarkRestore is the fixed cost a checkpointed cell pays before it
// simulates anything, as harness.RunOne pays it: a machine on an empty
// memory, the checkpoint restored over it, the hierarchy released when
// the cell is done. "built" withholds the release, so every machine
// allocates and zeroes its own tag arrays, which is what every machine
// did before the pool; the B/op gap between the two is those arrays.
func BenchmarkRestore(b *testing.B) {
	wl, err := workload.ByName("mcf_r")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Variant: Hybrid, Model: pipeline.Futuristic,
		WarmupInstrs: 50_000, WarmupMode: WarmupFunctional, MaxInstrs: 60_000}
	prog, init := wl.Build()
	ck := CaptureCheckpoint(cfg, prog, init)
	for _, pooled := range []bool{true, false} {
		name := "built"
		if pooled {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := NewMachineWithMemory(cfg, prog, isa.NewMemory())
				if err := m.Restore(ck); err != nil {
					b.Fatal(err)
				}
				if pooled {
					m.Release()
				}
			}
		})
	}
}
