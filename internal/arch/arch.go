// Package arch is the simulator's architectural-state layer: the
// committed machine state (registers, PC, halted flag) plus a
// one-instruction functional Step whose per-opcode semantics are the same
// internal/isa definitions the cycle-level pipeline executes — EvalALU,
// BranchTaken, LoadValue, StoreValue — so the two interpreters cannot
// diverge. On top of Step the package provides the golden functional
// executor (Exec), the touch-warming functional warmup used by
// checkpointed sweeps (Warmup), and the serializable warmup Checkpoint.
package arch

import (
	"errors"

	"repro/internal/isa"
)

// State is the architectural state of a single core: everything the
// committed side of the machine holds, and nothing the speculative side
// does. The zero value is the reset state (PC 0, zero registers).
type State struct {
	Regs   [isa.NumRegs]uint64
	PC     int
	Halted bool

	// Dynamic-instruction counters (the halt counts as an instruction,
	// matching the pipeline's committed count).
	Instrs   uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
}

// StepInfo describes the instruction a Step executed, for drivers that
// observe the instruction stream (warmup touch-warming, differential
// tests).
type StepInfo struct {
	PC    int // PC of the executed instruction
	Instr isa.Instr

	Mem    bool   // the instruction accessed memory
	IsLoad bool   // ... as a load (else a store)
	Addr   uint64 // effective address, valid when Mem

	Branch bool // the instruction was a branch (conditional or jump)
	Cond   bool // ... a conditional one
	Taken  bool // resolved direction, valid when Branch

	Flush     bool   // the instruction was a clflush
	FlushAddr uint64 // its effective address
}

// Step executes one instruction functionally: in-order, no speculation,
// no timing. OpRdCyc yields the dynamic instruction count — the
// functional model's only notion of time. Stepping a halted state is a
// no-op.
func (s *State) Step(p *isa.Program, m *isa.Memory) StepInfo {
	if s.Halted {
		return StepInfo{PC: s.PC}
	}
	in := p.At(s.PC)
	info := StepInfo{PC: s.PC, Instr: in}
	s.Instrs++
	switch {
	case in.Op == isa.OpHalt:
		s.Halted = true
	case in.Op == isa.OpNop:
		s.PC++
	case in.Op == isa.OpFlush:
		info.Flush = true
		info.FlushAddr = s.Regs[in.Rs] + uint64(in.Imm)
		s.PC++
	case in.Op.IsBranch():
		s.Branches++
		info.Branch = true
		info.Cond = in.Op.IsCondBranch()
		info.Taken = isa.BranchTaken(in.Op, s.Regs[in.Rs], s.Regs[in.Rt])
		if info.Taken {
			s.PC = in.Target
		} else {
			s.PC++
		}
	case in.Op.IsLoad():
		s.Loads++
		addr := s.Regs[in.Rs] + uint64(in.Imm)
		info.Mem, info.IsLoad, info.Addr = true, true, addr
		s.Regs[in.Rd] = isa.LoadValue(m, in.Op, addr)
		s.PC++
	case in.Op.IsStore():
		s.Stores++
		addr := s.Regs[in.Rs] + uint64(in.Imm)
		info.Mem, info.Addr = true, addr
		isa.StoreValue(m, in.Op, addr, s.Regs[in.Rt])
		s.PC++
	default:
		s.Regs[in.Rd] = isa.EvalALU(in, s.Regs[in.Rs], s.Regs[in.Rt], s.Instrs)
		s.PC++
	}
	return info
}

// ExecResult summarises a functional execution.
type ExecResult struct {
	Regs      [isa.NumRegs]uint64
	Instrs    uint64 // dynamic instructions executed (including the halt)
	Halted    bool   // false if the step budget ran out first
	LoadCount uint64
	StoreCount,
	BranchCount uint64
}

// errStepBudget is returned by Exec when the program did not halt within
// the given number of dynamic instructions.
var errStepBudget = errors.New("arch: step budget exhausted before halt")

// Exec runs the program on the golden functional model. It mutates mem
// and returns the final architectural registers. regs gives initial
// register values (may be nil for all-zero).
//
// Exec is the reference against which every cycle-level configuration is
// differentially tested: a correct defense changes timing, never
// architectural results.
func Exec(p *isa.Program, mem *isa.Memory, regs *[isa.NumRegs]uint64, maxInstrs uint64) (ExecResult, error) {
	var st State
	if regs != nil {
		st.Regs = *regs
	}
	for st.Instrs < maxInstrs && !st.Halted {
		st.Step(p, mem)
	}
	r := ExecResult{
		Regs: st.Regs, Instrs: st.Instrs, Halted: st.Halted,
		LoadCount: st.Loads, StoreCount: st.Stores, BranchCount: st.Branches,
	}
	if !st.Halted {
		return r, errStepBudget
	}
	return r, nil
}
