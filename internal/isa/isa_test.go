package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                                       Op
		branch, load, store, fp, fpTx, writesReg bool
	}{
		{OpNop, false, false, false, false, false, false},
		{OpHalt, false, false, false, false, false, false},
		{OpAdd, false, false, false, false, false, true},
		{OpMovI, false, false, false, false, false, true},
		{OpFAdd, false, false, false, true, false, true},
		{OpFMul, false, false, false, true, true, true},
		{OpFDiv, false, false, false, true, true, true},
		{OpFSqrt, false, false, false, true, true, true},
		{OpLoad, false, true, false, false, false, true},
		{OpLoadB, false, true, false, false, false, true},
		{OpStore, false, false, true, false, false, false},
		{OpStoreB, false, false, true, false, false, false},
		{OpBeq, true, false, false, false, false, false},
		{OpJmp, true, false, false, false, false, false},
		{OpFlush, false, false, false, false, false, false},
		{OpRdCyc, false, false, false, false, false, true},
	}
	for _, c := range cases {
		if got := c.op.IsBranch(); got != c.branch {
			t.Errorf("%v.IsBranch() = %v, want %v", c.op, got, c.branch)
		}
		if got := c.op.IsLoad(); got != c.load {
			t.Errorf("%v.IsLoad() = %v, want %v", c.op, got, c.load)
		}
		if got := c.op.IsStore(); got != c.store {
			t.Errorf("%v.IsStore() = %v, want %v", c.op, got, c.store)
		}
		if got := c.op.IsFP(); got != c.fp {
			t.Errorf("%v.IsFP() = %v, want %v", c.op, got, c.fp)
		}
		if got := c.op.IsFPTransmitter(); got != c.fpTx {
			t.Errorf("%v.IsFPTransmitter() = %v, want %v", c.op, got, c.fpTx)
		}
		if got := c.op.WritesReg(); got != c.writesReg {
			t.Errorf("%v.WritesReg() = %v, want %v", c.op, got, c.writesReg)
		}
	}
}

// TestClassTableExhaustive pins the op-class table against switch-based
// reference predicates for every opcode.
func TestClassTableExhaustive(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		var want Class
		switch o {
		case OpBeq, OpBne, OpBlt, OpBge:
			want = ClassBranch | ClassCondBranch
		case OpJmp:
			want = ClassBranch
		case OpLoad, OpLoadB:
			want = ClassLoad | ClassWritesReg
		case OpStore, OpStoreB:
			want = ClassStore
		case OpFAdd, OpFSub:
			want = ClassFP | ClassWritesReg
		case OpFMul, OpFDiv, OpFSqrt:
			want = ClassFP | ClassFPTransmitter | ClassWritesReg
		case OpNop, OpHalt, OpFlush:
		default:
			want = ClassWritesReg
		}
		if got := o.Class(); got != want {
			t.Errorf("%v.Class() = %b, want %b", o, got, want)
		}
	}
}

func TestCondBranchClassification(t *testing.T) {
	for _, op := range []Op{OpBeq, OpBne, OpBlt, OpBge} {
		if !op.IsCondBranch() {
			t.Errorf("%v should be a conditional branch", op)
		}
	}
	if OpJmp.IsCondBranch() {
		t.Error("jmp must not be a conditional branch")
	}
}

func TestSrcRegs(t *testing.T) {
	got := Instr{Op: OpAdd, Rd: R1, Rs: R2, Rt: R3}.SrcRegs(nil)
	if len(got) != 2 || got[0] != R2 || got[1] != R3 {
		t.Errorf("add srcs = %v", got)
	}
	got = Instr{Op: OpLoad, Rd: R1, Rs: R4}.SrcRegs(nil)
	if len(got) != 1 || got[0] != R4 {
		t.Errorf("load srcs = %v", got)
	}
	got = Instr{Op: OpMovI, Rd: R1}.SrcRegs(nil)
	if len(got) != 0 {
		t.Errorf("movi srcs = %v", got)
	}
	got = Instr{Op: OpStore, Rs: R1, Rt: R2}.SrcRegs(nil)
	if len(got) != 2 {
		t.Errorf("store srcs = %v", got)
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0xdeadbeefcafebabe)
	if got := m.Read64(0x1000); got != 0xdeadbeefcafebabe {
		t.Fatalf("Read64 = %#x", got)
	}
	if got := m.Read8(0x1000); got != 0xbe {
		t.Fatalf("little-endian low byte = %#x", got)
	}
	// Unwritten memory reads zero.
	if got := m.Read64(0x999000); got != 0 {
		t.Fatalf("unwritten read = %#x", got)
	}
	// Page-straddling word.
	m.Write64(pageSize-3, 0x1122334455667788)
	if got := m.Read64(pageSize - 3); got != 0x1122334455667788 {
		t.Fatalf("straddling Read64 = %#x", got)
	}
}

func TestMemoryZeroValueUsable(t *testing.T) {
	var m Memory
	if got := m.Read64(64); got != 0 {
		t.Fatalf("zero-value read = %d", got)
	}
	m.Write8(5, 7)
	if got := m.Read8(5); got != 7 {
		t.Fatalf("zero-value write/read = %d", got)
	}
}

func TestMemoryCloneAndEqual(t *testing.T) {
	m := NewMemory()
	m.Write64(0x40, 1234)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.Write64(0x40, 5678)
	if m.Equal(c) {
		t.Fatal("diverged clone should not equal original")
	}
	if m.Read64(0x40) != 1234 {
		t.Fatal("clone write leaked into original")
	}
	// A page of explicit zeros equals an absent page.
	d := m.Clone()
	d.Write64(0x77000, 0)
	if !m.Equal(d) || !d.Equal(m) {
		t.Fatal("zero-filled page must equal absent page")
	}
}

func TestMemoryPropertyRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr &= 0xffffff // keep the page map small
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryPropertyBytesCompose64(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr &= 0xffffff
		m.Write64(addr, v)
		var composed uint64
		for i := 0; i < 8; i++ {
			composed |= uint64(m.Read8(addr+uint64(i))) << (8 * i)
		}
		return composed == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderLabelsAndBranches(t *testing.T) {
	p, err := NewBuilder().
		MovI(R1, 0).
		MovI(R2, 10).
		Label("loop").
		AddI(R1, R1, 1).
		Blt(R1, R2, "loop").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["loop"] != 2 {
		t.Fatalf("loop label = %d, want 2", p.Labels["loop"])
	}
	if p.Instrs[3].Target != 2 {
		t.Fatalf("branch target = %d, want 2", p.Instrs[3].Target)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Jmp("missing").Build(); err == nil {
		t.Error("undefined label should fail")
	}
	if _, err := NewBuilder().Label("a").Label("a").Build(); err == nil {
		t.Error("duplicate label should fail")
	}
}

func TestValidateRejectsBadTarget(t *testing.T) {
	p := &Program{Instrs: []Instr{{Op: OpJmp, Target: 99}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range target should fail validation")
	}
}

func TestProgramAtOutOfRangeHalts(t *testing.T) {
	p := &Program{Instrs: []Instr{{Op: OpNop}}}
	if got := p.At(5).Op; got != OpHalt {
		t.Errorf("At(5).Op = %v, want halt", got)
	}
	if got := p.At(-1).Op; got != OpHalt {
		t.Errorf("At(-1).Op = %v, want halt", got)
	}
}

func TestEvalALUDivByZero(t *testing.T) {
	if got := EvalALU(Instr{Op: OpDiv}, 10, 0, 0); got != 0 {
		t.Fatalf("div by zero = %d, want 0", got)
	}
}

func TestEvalALUFloat(t *testing.T) {
	fb := math.Float64bits
	got := EvalALU(Instr{Op: OpFMul}, fb(3), fb(4), 0)
	if math.Float64frombits(got) != 12 {
		t.Fatalf("3*4 = %v", math.Float64frombits(got))
	}
	got = EvalALU(Instr{Op: OpFSqrt}, fb(81), 0, 0)
	if math.Float64frombits(got) != 9 {
		t.Fatalf("sqrt(81) = %v", math.Float64frombits(got))
	}
	got = EvalALU(Instr{Op: OpItoF}, uint64(7), 0, 0)
	if math.Float64frombits(got) != 7 {
		t.Fatalf("itof(7) = %v", math.Float64frombits(got))
	}
	got = EvalALU(Instr{Op: OpFtoI}, fb(9.75), 0, 0)
	if int64(got) != 9 {
		t.Fatalf("ftoi(9.75) = %d", int64(got))
	}
	got = EvalALU(Instr{Op: OpFtoI}, fb(math.NaN()), 0, 0)
	if got != 0 {
		t.Fatalf("ftoi(NaN) = %d, want 0", got)
	}
}

func TestSubnormalDetection(t *testing.T) {
	sub := math.Float64bits(math.SmallestNonzeroFloat64)
	if !IsSubnormalBits(sub) {
		t.Error("smallest nonzero float64 is subnormal")
	}
	if IsSubnormalBits(math.Float64bits(1.0)) {
		t.Error("1.0 is not subnormal")
	}
	if IsSubnormalBits(0) {
		t.Error("+0.0 is not subnormal")
	}
	if IsSubnormalBits(math.Float64bits(math.Inf(1))) {
		t.Error("+Inf is not subnormal")
	}
	// fmul with a subnormal operand takes the slow path.
	if !FPSlowPath(OpFMul, sub, math.Float64bits(1.0), sub) {
		t.Error("fmul with subnormal operand should be slow")
	}
	// fmul producing a subnormal result takes the slow path.
	tiny := math.Float64bits(1e-300)
	small := math.Float64bits(1e-15)
	res := EvalALU(Instr{Op: OpFMul}, tiny, small, 0)
	if !IsSubnormalBits(res) {
		t.Fatal("test setup: product should be subnormal")
	}
	if !FPSlowPath(OpFMul, tiny, small, res) {
		t.Error("fmul producing subnormal should be slow")
	}
	if FPSlowPath(OpFMul, math.Float64bits(2), math.Float64bits(3), EvalALU(Instr{Op: OpFMul}, math.Float64bits(2), math.Float64bits(3), 0)) {
		t.Error("normal fmul should be fast")
	}
	if FPSlowPath(OpAdd, sub, sub, sub) {
		t.Error("integer ops never take the FP slow path")
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op     Op
		rs, rt uint64
		want   bool
	}{
		{OpBeq, 5, 5, true},
		{OpBeq, 5, 6, false},
		{OpBne, 5, 6, true},
		{OpBlt, ^uint64(0), 1, true}, // -1 < 1 signed
		{OpBge, 1, ^uint64(0), true}, // 1 >= -1 signed
		{OpJmp, 0, 0, true},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.rs, c.rt); got != c.want {
			t.Errorf("BranchTaken(%v, %d, %d) = %v, want %v", c.op, c.rs, c.rt, got, c.want)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpMovI, Rd: R1, Imm: 5}, "movi r1, 5"},
		{Instr{Op: OpLoad, Rd: R2, Rs: R3, Imm: 8}, "ld r2, 8(r3)"},
		{Instr{Op: OpStore, Rt: R2, Rs: R3, Imm: 8}, "st r2, 8(r3)"},
		{Instr{Op: OpBlt, Rs: R1, Rt: R2, Target: 7}, "blt r1, r2, @7"},
		{Instr{Op: OpJmp, Target: 3}, "jmp @3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEvalALUAlgebraicProperties(t *testing.T) {
	// Property checks over the shared ALU evaluator.
	add := func(a, b uint64) bool {
		x := EvalALU(Instr{Op: OpAdd}, a, b, 0)
		y := EvalALU(Instr{Op: OpAdd}, b, a, 0)
		return x == y // commutativity
	}
	if err := quick.Check(add, nil); err != nil {
		t.Error(err)
	}
	xorInv := func(a, b uint64) bool {
		x := EvalALU(Instr{Op: OpXor}, a, b, 0)
		return EvalALU(Instr{Op: OpXor}, x, b, 0) == a // involution
	}
	if err := quick.Check(xorInv, nil); err != nil {
		t.Error(err)
	}
	shifts := func(a uint64, s uint8) bool {
		n := uint64(s) & 63
		l := EvalALU(Instr{Op: OpShl}, a, n, 0)
		return l == a<<n
	}
	if err := quick.Check(shifts, nil); err != nil {
		t.Error(err)
	}
	divMul := func(a uint64, b uint64) bool {
		if b == 0 {
			return EvalALU(Instr{Op: OpDiv}, a, b, 0) == 0
		}
		q := EvalALU(Instr{Op: OpDiv}, a, b, 0)
		r := int64(a) - int64(q)*int64(b)
		// |remainder| < |divisor| for Go truncated division.
		ab := int64(b)
		if ab < 0 {
			ab = -ab
		}
		ar := r
		if ar < 0 {
			ar = -ar
		}
		return ar < ab
	}
	if err := quick.Check(divMul, nil); err != nil {
		t.Error(err)
	}
}

func TestEvalALUFtoIClamps(t *testing.T) {
	huge := math.Float64bits(1e300)
	if got := EvalALU(Instr{Op: OpFtoI}, huge, 0, 0); got != uint64(math.MaxInt64) {
		t.Fatalf("ftoi(1e300) = %#x, want MaxInt64", got)
	}
	negHuge := math.Float64bits(-1e300)
	if got := EvalALU(Instr{Op: OpFtoI}, negHuge, 0, 0); got != uint64(1)<<63 {
		t.Fatalf("ftoi(-1e300) = %#x, want MinInt64", got)
	}
}

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on undefined label")
		}
	}()
	NewBuilder().Jmp("nowhere").MustBuild()
}
