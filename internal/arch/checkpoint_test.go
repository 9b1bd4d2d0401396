package arch

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// testProgram is a small kernel with branches, loads and stores: enough
// to leave nontrivial state in every warm structure.
func testProgram() (*isa.Program, func(*isa.Memory)) {
	p := isa.NewBuilder().
		MovI(isa.R1, 0x2000).
		MovI(isa.R2, 0).
		MovI(isa.R3, 500).
		Label("loop").
		Load(isa.R4, isa.R1, 0).
		AddI(isa.R4, isa.R4, 3).
		Store(isa.R4, isa.R1, 0).
		AddI(isa.R1, isa.R1, 64).
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "loop").
		Halt().
		MustBuild()
	init := func(m *isa.Memory) {
		for i := uint64(0); i < 500; i++ {
			m.Write64(0x2000+i*64, i)
		}
	}
	return p, init
}

func captureTest(warmup uint64) *Checkpoint {
	p, init := testProgram()
	return Capture(p, init, mem.DefaultConfig(), bpred.DefaultConfig(), pipeline.DefaultConfig().CodeBase, warmup)
}

func TestWarmupExactBoundary(t *testing.T) {
	// Functional warmup must execute exactly the budget — no commit-width
	// overshoot like detailed warmup.
	for _, budget := range []uint64{1, 7, 100, 1001, 2500} {
		ck := captureTest(budget)
		if ck.Arch.Instrs != budget {
			t.Errorf("warmup %d: executed %d instructions", budget, ck.Arch.Instrs)
		}
		if ck.Arch.Halted {
			t.Errorf("warmup %d: halted inside the budget", budget)
		}
	}
}

func TestWarmupStopsAtHalt(t *testing.T) {
	ck := captureTest(10_000_000)
	if !ck.Arch.Halted {
		t.Fatal("program should have halted inside a huge budget")
	}
	if ck.Arch.Instrs >= 10_000_000 {
		t.Fatalf("executed %d instructions", ck.Arch.Instrs)
	}
}

func TestWarmupMatchesExec(t *testing.T) {
	// The warmup loop wraps State.Step; its architectural outcome must
	// match plain Exec over the same instruction count.
	const n = 1234
	ck := captureTest(n)
	p, init := testProgram()
	data := isa.NewMemory()
	init(data)
	var st State
	for st.Instrs < n && !st.Halted {
		st.Step(p, data)
	}
	if st.Regs != ck.Arch.Regs || st.PC != ck.Arch.PC {
		t.Fatal("warmup architectural state diverges from bare stepping")
	}
	if !reflect.DeepEqual(data.Image(), ck.Mem) {
		t.Fatal("warmup memory image diverges from bare stepping")
	}
}

func TestWarmupWarmsState(t *testing.T) {
	ck := captureTest(2000)
	if ck.Hier.L1D.Hits+ck.Hier.L1D.Misses == 0 {
		t.Error("no L1D traffic during warmup")
	}
	if ck.Hier.L1I.Hits+ck.Hier.L1I.Misses == 0 {
		t.Error("no L1I traffic during warmup")
	}
	if ck.Hier.TLB.Hits+ck.Hier.TLB.Misses == 0 {
		t.Error("no TLB traffic during warmup")
	}
	if ck.BP.Lookups == 0 {
		t.Error("no branch predictor lookups during warmup")
	}
	// A snapshot stores only valid lines, each at its tag-array position.
	l1d := ck.Hier.L1D
	if len(l1d.Lines) == 0 {
		t.Error("L1D has no valid lines after warmup")
	}
	if len(l1d.Index) != len(l1d.Lines) {
		t.Fatalf("L1D snapshot has %d lines but %d positions", len(l1d.Lines), len(l1d.Index))
	}
	entries := mem.DefaultConfig().L1D.SizeBytes / mem.LineBytes
	for i, l := range l1d.Lines {
		if !l.Valid {
			t.Errorf("L1D snapshot line %d is not valid", i)
		}
		if at := int(l1d.Index[i]); at >= entries || i > 0 && at <= int(l1d.Index[i-1]) {
			t.Errorf("L1D snapshot line %d at position %d: positions must ascend below %d", i, at, entries)
		}
	}
}

func TestCheckpointGobRoundTrip(t *testing.T) {
	ck := captureTest(2000)
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatal("checkpoint changed across encode/decode")
	}
}

func TestCaptureDeterministic(t *testing.T) {
	a, b := captureTest(2000), captureTest(2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two captures of the same (workload, warmup) differ")
	}
}
