package arch

import (
	"testing"

	"repro/internal/isa"
)

func TestExecLoopSum(t *testing.T) {
	// Sum 1..100 into R3.
	p := isa.NewBuilder().
		MovI(isa.R1, 1).
		MovI(isa.R2, 101).
		MovI(isa.R3, 0).
		Label("loop").
		Add(isa.R3, isa.R3, isa.R1).
		AddI(isa.R1, isa.R1, 1).
		Blt(isa.R1, isa.R2, "loop").
		Halt().
		MustBuild()
	res, err := Exec(p, isa.NewMemory(), nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("program should halt")
	}
	if res.Regs[isa.R3] != 5050 {
		t.Fatalf("sum = %d, want 5050", res.Regs[isa.R3])
	}
	if res.BranchCount != 100 {
		t.Fatalf("branches = %d, want 100", res.BranchCount)
	}
}

func TestExecMemoryOps(t *testing.T) {
	p := isa.NewBuilder().
		MovI(isa.R1, 0x2000).
		MovI(isa.R2, 42).
		Store(isa.R2, isa.R1, 0).
		Load(isa.R3, isa.R1, 0).
		StoreB(isa.R2, isa.R1, 100).
		LoadB(isa.R4, isa.R1, 100).
		Halt().
		MustBuild()
	mem := isa.NewMemory()
	res, err := Exec(p, mem, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[isa.R3] != 42 || res.Regs[isa.R4] != 42 {
		t.Fatalf("R3=%d R4=%d, want 42/42", res.Regs[isa.R3], res.Regs[isa.R4])
	}
	if res.LoadCount != 2 || res.StoreCount != 2 {
		t.Fatalf("loads=%d stores=%d", res.LoadCount, res.StoreCount)
	}
	if mem.Read64(0x2000) != 42 {
		t.Fatal("store not visible in memory")
	}
}

func TestExecStepBudget(t *testing.T) {
	p := isa.NewBuilder().Label("spin").Jmp("spin").MustBuild()
	_, err := Exec(p, isa.NewMemory(), nil, 1000)
	if err != errStepBudget {
		t.Fatalf("err = %v, want errStepBudget", err)
	}
}

func TestExecRdCycIsInstrCount(t *testing.T) {
	p := isa.NewBuilder().Nop().Nop().RdCyc(isa.R5).Halt().MustBuild()
	res, err := Exec(p, isa.NewMemory(), nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[isa.R5] != 3 {
		t.Fatalf("rdcyc = %d, want 3", res.Regs[isa.R5])
	}
}

func TestExecInitialRegs(t *testing.T) {
	var regs [isa.NumRegs]uint64
	regs[isa.R1] = 99
	p := isa.NewBuilder().AddI(isa.R2, isa.R1, 1).Halt().MustBuild()
	res, err := Exec(p, isa.NewMemory(), &regs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[isa.R2] != 100 {
		t.Fatalf("R2 = %d, want 100", res.Regs[isa.R2])
	}
}

func TestBuilderEveryOpChains(t *testing.T) {
	// Exercise the full builder surface in one program and verify it
	// assembles, validates and runs on the functional emulator.
	p := isa.NewBuilder().
		Nop().
		MovI(isa.R1, 10).
		MovI(isa.R2, 3).
		AddI(isa.R3, isa.R1, 1).
		Add(isa.R3, isa.R3, isa.R2).
		Sub(isa.R4, isa.R3, isa.R2).
		Mul(isa.R5, isa.R4, isa.R2).
		Div(isa.R6, isa.R5, isa.R2).
		And(isa.R7, isa.R6, isa.R1).
		Or(isa.R8, isa.R7, isa.R2).
		Xor(isa.R9, isa.R8, isa.R1).
		Shl(isa.R10, isa.R9, isa.R2).
		Shr(isa.R11, isa.R10, isa.R2).
		ItoF(isa.R12, isa.R11).
		ItoF(isa.R13, isa.R2).
		FAdd(isa.R14, isa.R12, isa.R13).
		FSub(isa.R15, isa.R14, isa.R13).
		FMul(isa.R16, isa.R15, isa.R13).
		FDiv(isa.R17, isa.R16, isa.R13).
		FSqrt(isa.R18, isa.R17).
		FtoI(isa.R19, isa.R18).
		MovI(isa.R20, 0x3000).
		Store(isa.R19, isa.R20, 0).
		StoreB(isa.R19, isa.R20, 8).
		Load(isa.R21, isa.R20, 0).
		LoadB(isa.R22, isa.R20, 8).
		Flush(isa.R20, 0).
		RdCyc(isa.R23).
		Beq(isa.R21, isa.R21, "fin").
		Raw(isa.Instr{Op: isa.OpNop}).
		Label("fin").
		Halt().
		MustBuild()
	res, err := Exec(p, isa.NewMemory(), nil, 1000)
	if err != nil || !res.Halted {
		t.Fatalf("run: %v halted=%v", err, res.Halted)
	}
	if res.Regs[isa.R21] != res.Regs[isa.R19] {
		t.Fatal("store/load roundtrip failed")
	}
}
