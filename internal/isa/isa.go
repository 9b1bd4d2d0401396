// Package isa defines the small RISC-like instruction set executed by the
// simulator, together with a sparse 64-bit memory, an assembler-style
// program builder, and a functional (architectural, timing-free) executor
// that serves as the golden model for differential testing.
//
// The ISA is deliberately minimal: it contains exactly the instruction
// classes the SDO paper's evaluation depends on — integer ALU operations,
// floating-point operations with operand-dependent latency classes
// (normal/subnormal), loads and stores, conditional branches, a cache-line
// flush (clflush), and a cycle-counter read (rdtsc) used by the in-simulator
// Spectre penetration test.
package isa

import "fmt"

// Reg names an architectural register. The machine has NumRegs 64-bit
// general registers; floating-point operations reinterpret register bits as
// IEEE-754 float64 values.
type Reg uint8

// NumRegs is the number of architectural registers.
const NumRegs = 32

// Convenient register aliases for hand-written programs.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// Op enumerates the instruction opcodes.
type Op uint8

const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpHalt stops the program.
	OpHalt

	// OpMovI sets Rd = Imm.
	OpMovI
	// OpAddI sets Rd = Rs + Imm.
	OpAddI
	// OpAdd sets Rd = Rs + Rt.
	OpAdd
	// OpSub sets Rd = Rs - Rt.
	OpSub
	// OpMul sets Rd = Rs * Rt.
	OpMul
	// OpDiv sets Rd = Rs / Rt (0 if Rt == 0).
	OpDiv
	// OpAnd sets Rd = Rs & Rt.
	OpAnd
	// OpOr sets Rd = Rs | Rt.
	OpOr
	// OpXor sets Rd = Rs ^ Rt.
	OpXor
	// OpShl sets Rd = Rs << (Rt & 63).
	OpShl
	// OpShr sets Rd = Rs >> (Rt & 63) (logical).
	OpShr

	// OpFAdd sets Rd = float64(Rs) + float64(Rt).
	OpFAdd
	// OpFSub sets Rd = float64(Rs) - float64(Rt).
	OpFSub
	// OpFMul sets Rd = float64(Rs) * float64(Rt). Transmitter: latency
	// depends on whether an operand or the result is subnormal.
	OpFMul
	// OpFDiv sets Rd = float64(Rs) / float64(Rt). Transmitter, like OpFMul.
	OpFDiv
	// OpFSqrt sets Rd = sqrt(float64(Rs)). Transmitter, like OpFMul.
	OpFSqrt
	// OpItoF converts the signed integer in Rs to float64 in Rd.
	OpItoF
	// OpFtoI truncates the float64 in Rs to a signed integer in Rd.
	OpFtoI

	// OpLoad sets Rd = mem64[Rs + Imm]. Access instruction and transmitter.
	OpLoad
	// OpLoadB sets Rd = zext(mem8[Rs + Imm]). Access instruction and
	// transmitter.
	OpLoadB
	// OpStore sets mem64[Rs + Imm] = Rt.
	OpStore
	// OpStoreB sets mem8[Rs + Imm] = low8(Rt).
	OpStoreB

	// OpBeq branches to Target if Rs == Rt.
	OpBeq
	// OpBne branches to Target if Rs != Rt.
	OpBne
	// OpBlt branches to Target if int64(Rs) < int64(Rt).
	OpBlt
	// OpBge branches to Target if int64(Rs) >= int64(Rt).
	OpBge
	// OpJmp branches to Target unconditionally.
	OpJmp

	// OpFlush evicts the cache line containing address Rs + Imm from the
	// whole hierarchy (clflush). Architecturally a no-op.
	OpFlush
	// OpRdCyc sets Rd to the current cycle count (rdtsc). In the functional
	// executor it returns the dynamic instruction count instead.
	OpRdCyc

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpHalt: "halt",
	OpMovI: "movi", OpAddI: "addi", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpDiv: "div", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFSqrt: "fsqrt", OpItoF: "itof", OpFtoI: "ftoi",
	OpLoad: "ld", OpLoadB: "ldb", OpStore: "st", OpStoreB: "stb",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpJmp: "jmp",
	OpFlush: "flush", OpRdCyc: "rdcyc",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one decoded instruction. Branch targets are absolute indices
// into the program's instruction slice.
type Instr struct {
	Op     Op
	Rd     Reg   // destination register
	Rs, Rt Reg   // source registers
	Imm    int64 // immediate / address offset
	Target int   // branch target (program index)
}

// String renders the instruction in a readable assembly-like form.
func (i Instr) String() string {
	switch {
	case i.Op == OpNop || i.Op == OpHalt:
		return i.Op.String()
	case i.Op.IsBranch() && i.Op != OpJmp:
		return fmt.Sprintf("%s r%d, r%d, @%d", i.Op, i.Rs, i.Rt, i.Target)
	case i.Op == OpJmp:
		return fmt.Sprintf("jmp @%d", i.Target)
	case i.Op.IsLoad():
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Rs)
	case i.Op.IsStore():
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rt, i.Imm, i.Rs)
	case i.Op == OpFlush:
		return fmt.Sprintf("flush %d(r%d)", i.Imm, i.Rs)
	case i.Op == OpMovI:
		return fmt.Sprintf("movi r%d, %d", i.Rd, i.Imm)
	case i.Op == OpAddI:
		return fmt.Sprintf("addi r%d, r%d, %d", i.Rd, i.Rs, i.Imm)
	case i.Op == OpRdCyc, i.Op == OpFSqrt, i.Op == OpItoF, i.Op == OpFtoI:
		return fmt.Sprintf("%s r%d, r%d", i.Op, i.Rd, i.Rs)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs, i.Rt)
	}
}

// Class is the set of opcode classes an Op belongs to. The pipeline
// decodes it once per instruction (at rename) instead of re-deriving the
// Is* predicates in every stage.
type Class uint8

const (
	ClassBranch        Class = 1 << iota // control flow, OpJmp included
	ClassCondBranch                      // conditional branch
	ClassLoad                            // reads memory
	ClassStore                           // writes memory
	ClassFP                              // floating-point arithmetic
	ClassFPTransmitter                   // fmul/fdiv/fsqrt: operand-dependent latency
	ClassWritesReg                       // produces a register result
)

var opClasses = func() (t [256]Class) {
	for o := OpMovI; o < numOps; o++ {
		t[o] = ClassWritesReg
	}
	for _, o := range []Op{OpBeq, OpBne, OpBlt, OpBge} {
		t[o] = ClassBranch | ClassCondBranch
	}
	t[OpJmp], t[OpFlush] = ClassBranch, 0
	t[OpLoad] |= ClassLoad
	t[OpLoadB] |= ClassLoad
	t[OpStore], t[OpStoreB] = ClassStore, ClassStore
	for _, o := range []Op{OpFAdd, OpFSub, OpFMul, OpFDiv, OpFSqrt} {
		t[o] |= ClassFP
	}
	for _, o := range []Op{OpFMul, OpFDiv, OpFSqrt} {
		t[o] |= ClassFPTransmitter
	}
	return t
}()

// Class returns the opcode's class set.
func (o Op) Class() Class { return opClasses[o] }

// IsBranch reports whether the opcode is a control-flow instruction.
func (o Op) IsBranch() bool { return opClasses[o]&ClassBranch != 0 }

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return opClasses[o]&ClassCondBranch != 0 }

// IsLoad reports whether the opcode reads memory. Loads are the paper's
// canonical access instructions and transmitters.
func (o Op) IsLoad() bool { return opClasses[o]&ClassLoad != 0 }

// IsStore reports whether the opcode writes memory.
func (o Op) IsStore() bool { return opClasses[o]&ClassStore != 0 }

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool { return opClasses[o]&(ClassLoad|ClassStore) != 0 }

// IsFP reports whether the opcode is a floating-point arithmetic operation.
func (o Op) IsFP() bool { return opClasses[o]&ClassFP != 0 }

// IsFPTransmitter reports whether the opcode is one of the floating-point
// micro-ops the paper treats as transmitters in the STT{ld+fp} and SDO
// configurations (fmult/div/fsqrt: their latency depends on operand values).
func (o Op) IsFPTransmitter() bool { return opClasses[o]&ClassFPTransmitter != 0 }

// WritesReg reports whether instructions with this opcode produce a
// register result.
func (o Op) WritesReg() bool { return opClasses[o]&ClassWritesReg != 0 }

// SrcRegs appends the source registers read by instruction i to dst and
// returns the extended slice. dst may be nil; passing buf[:0] of a
// [2]Reg on the caller's stack makes the call allocation-free.
func (i Instr) SrcRegs(dst []Reg) []Reg {
	switch i.Op {
	case OpNop, OpHalt, OpMovI, OpJmp, OpRdCyc:
		return dst
	case OpAddI, OpItoF, OpFtoI, OpFSqrt, OpLoad, OpLoadB, OpFlush:
		return append(dst, i.Rs)
	case OpStore, OpStoreB, OpBeq, OpBne, OpBlt, OpBge:
		return append(dst, i.Rs, i.Rt)
	default: // three-operand ALU / FP
		return append(dst, i.Rs, i.Rt)
	}
}

// Program is an executable sequence of instructions. Labels records the
// instruction index of each label defined during building (useful for
// tests and attack code that needs to locate specific gadgets).
type Program struct {
	Instrs []Instr
	Labels map[string]int
}

// Len returns the number of instructions in the program.
func (p *Program) Len() int { return len(p.Instrs) }

// At returns the instruction at index pc; fetching past the end returns
// OpHalt so runaway fetch terminates cleanly.
func (p *Program) At(pc int) Instr {
	if pc < 0 || pc >= len(p.Instrs) {
		return Instr{Op: OpHalt}
	}
	return p.Instrs[pc]
}

// Validate checks structural invariants: all branch targets must be within
// [0, Len()], and registers must be < NumRegs (guaranteed by the Reg type,
// but immediate-constructed programs are checked anyway).
func (p *Program) Validate() error {
	for idx, in := range p.Instrs {
		if in.Op >= numOps {
			return fmt.Errorf("isa: instruction %d has invalid opcode %d", idx, in.Op)
		}
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target > len(p.Instrs) {
				return fmt.Errorf("isa: instruction %d (%s) branches to %d, outside [0,%d]",
					idx, in, in.Target, len(p.Instrs))
			}
		}
		if in.Rd >= NumRegs || in.Rs >= NumRegs || in.Rt >= NumRegs {
			return fmt.Errorf("isa: instruction %d (%s) names register >= %d", idx, in, NumRegs)
		}
	}
	return nil
}
