package pipeline

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sdo"
)

// runOn executes prog on a fresh single-core machine with the given
// protection/model/predictor and returns the core (for stats/regs) and its
// memory image.
func runOn(t *testing.T, prot Scheme, model AttackModel, fpTx bool,
	predName string, prog *isa.Program, init func(*isa.Memory)) (*Core, *isa.Memory) {
	t.Helper()
	data := isa.NewMemory()
	if init != nil {
		init(data)
	}
	h := mem.NewHierarchy(mem.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Scheme = prot
	cfg.Model = model
	cfg.FPTransmitters = fpTx
	if prot == SchemeSDO {
		switch predName {
		case "perfect":
			cfg.LocPred = sdo.Perfect{Probe: h.Probe}
		case "hybrid":
			cfg.LocPred = sdo.NewHybrid(512)
		case "l1":
			cfg.LocPred = sdo.Static{Level: mem.L1}
		case "l3":
			cfg.LocPred = sdo.Static{Level: mem.L3}
		default:
			cfg.LocPred = sdo.Static{Level: mem.L2}
		}
	}
	core := New(cfg, prog, data, h)
	if _, err := core.Run(); err != nil {
		t.Fatalf("%s/%v/%s: %v", prot.Name(), model, predName, err)
	}
	if !core.Halted() {
		t.Fatalf("%s/%v/%s: did not halt", prot.Name(), model, predName)
	}
	return core, data
}

// allConfigs enumerates the interesting (protection, model, fpTx, pred)
// combinations.
type cfgTuple struct {
	prot Scheme
	mod  AttackModel
	fpTx bool
	pred string
}

func allConfigs() []cfgTuple {
	var out []cfgTuple
	for _, m := range []AttackModel{Spectre, Futuristic} {
		out = append(out,
			cfgTuple{SchemeUnsafe, m, false, ""},
			cfgTuple{SchemeSTT, m, false, ""},
			cfgTuple{SchemeSTT, m, true, ""},
			cfgTuple{SchemeSDO, m, true, "l1"},
			cfgTuple{SchemeSDO, m, true, "l2"},
			cfgTuple{SchemeSDO, m, true, "l3"},
			cfgTuple{SchemeSDO, m, true, "hybrid"},
			cfgTuple{SchemeSDO, m, true, "perfect"},
		)
	}
	return out
}

// checkEquivalence runs prog under every configuration and demands
// identical final architectural state to the functional golden model.
func checkEquivalence(t *testing.T, prog *isa.Program, init func(*isa.Memory)) {
	t.Helper()
	goldenMem := isa.NewMemory()
	if init != nil {
		init(goldenMem)
	}
	golden, err := arch.Exec(prog, goldenMem, nil, 10_000_000)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	for _, cf := range allConfigs() {
		core, data := runOn(t, cf.prot, cf.mod, cf.fpTx, cf.pred, prog, init)
		regs := core.Regs()
		for r := 0; r < isa.NumRegs; r++ {
			if regs[r] != golden.Regs[r] {
				t.Fatalf("%s/%v/%s: r%d = %d, golden %d",
					cf.prot.Name(), cf.mod, cf.pred, r, regs[r], golden.Regs[r])
			}
		}
		if !data.Equal(goldenMem) {
			t.Fatalf("%s/%v/%s: memory diverged from golden", cf.prot.Name(), cf.mod, cf.pred)
		}
	}
}

func sumLoopProgram() *isa.Program {
	return isa.NewBuilder().
		MovI(isa.R1, 1).
		MovI(isa.R2, 101).
		MovI(isa.R3, 0).
		Label("loop").
		Add(isa.R3, isa.R3, isa.R1).
		AddI(isa.R1, isa.R1, 1).
		Blt(isa.R1, isa.R2, "loop").
		Halt().
		MustBuild()
}

func TestSumLoopAllConfigs(t *testing.T) {
	checkEquivalence(t, sumLoopProgram(), nil)
}

func TestMemoryChainAllConfigs(t *testing.T) {
	// A pointer chase through memory: each loaded value is the next
	// address — loads feed loads, so taint propagates through the chain.
	b := isa.NewBuilder().
		MovI(isa.R1, 0x1000).
		MovI(isa.R2, 0).
		MovI(isa.R3, 16).
		MovI(isa.R4, 0).
		Label("loop").
		Load(isa.R1, isa.R1, 0). // R1 = mem[R1]
		Add(isa.R4, isa.R4, isa.R1).
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "loop").
		Halt()
	prog := b.MustBuild()
	init := func(m *isa.Memory) {
		// Build a 17-node cycle of pointers at 0x1000 + i*0x100.
		for i := 0; i < 17; i++ {
			m.Write64(uint64(0x1000+i*0x100), uint64(0x1000+(i+1)%17*0x100))
		}
	}
	checkEquivalence(t, prog, init)
}

func TestStoreLoadForwardingAllConfigs(t *testing.T) {
	b := isa.NewBuilder().
		MovI(isa.R1, 0x4000).
		MovI(isa.R2, 7).
		MovI(isa.R5, 0).
		MovI(isa.R6, 50).
		Label("loop").
		Mul(isa.R3, isa.R2, isa.R2).
		Store(isa.R3, isa.R1, 0).
		Load(isa.R4, isa.R1, 0). // forwarded from the store
		Add(isa.R2, isa.R4, isa.R2).
		AddI(isa.R5, isa.R5, 1).
		Blt(isa.R5, isa.R6, "loop").
		Halt()
	checkEquivalence(t, b.MustBuild(), nil)
}

func TestByteOpsAllConfigs(t *testing.T) {
	b := isa.NewBuilder().
		MovI(isa.R1, 0x5000).
		MovI(isa.R2, 0xAB).
		StoreB(isa.R2, isa.R1, 3).
		Load(isa.R3, isa.R1, 0). // 64-bit load over the stored byte: partial overlap
		LoadB(isa.R4, isa.R1, 3).
		Halt()
	checkEquivalence(t, b.MustBuild(), nil)
}

func TestDataDependentBranchesAllConfigs(t *testing.T) {
	// Branches whose predicates depend on loaded (tainted) data: exercises
	// STT's delayed branch resolution.
	b := isa.NewBuilder().
		MovI(isa.R1, 0x2000).
		MovI(isa.R2, 0). // i
		MovI(isa.R3, 64).
		MovI(isa.R4, 0). // count of odd values
		MovI(isa.R7, 1).
		Label("loop").
		Shl(isa.R5, isa.R2, isa.R7). // i*2... (R7=1) -> i*2
		Shl(isa.R5, isa.R5, isa.R7). // i*4
		Shl(isa.R5, isa.R5, isa.R7). // i*8
		Add(isa.R5, isa.R5, isa.R1).
		Load(isa.R6, isa.R5, 0).
		And(isa.R6, isa.R6, isa.R7).
		Beq(isa.R6, isa.R7, "odd").
		Jmp("next").
		Label("odd").
		AddI(isa.R4, isa.R4, 1).
		Label("next").
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "loop").
		Halt()
	init := func(m *isa.Memory) {
		for i := 0; i < 64; i++ {
			m.Write64(uint64(0x2000+i*8), uint64(i*i+3))
		}
	}
	checkEquivalence(t, b.MustBuild(), init)
}

func TestFPSubnormalAllConfigs(t *testing.T) {
	// FP transmitters fed by loaded data, some subnormal: exercises the
	// SDO fast-path-predict / fail / squash route and STT{ld+fp} delays.
	b := isa.NewBuilder().
		MovI(isa.R1, 0x3000).
		MovI(isa.R2, 0).
		MovI(isa.R3, 32).
		MovI(isa.R8, 0). // accumulator bits
		ItoF(isa.R8, isa.R8).
		MovI(isa.R9, 3).
		ItoF(isa.R9, isa.R9).
		Label("loop").
		Load(isa.R4, isa.R1, 0).
		FMul(isa.R5, isa.R4, isa.R9).
		FAdd(isa.R8, isa.R8, isa.R5).
		AddI(isa.R1, isa.R1, 8).
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "loop").
		Halt()
	init := func(m *isa.Memory) {
		for i := 0; i < 32; i++ {
			v := float64(i) * 1.5
			if i%7 == 3 {
				v = math.SmallestNonzeroFloat64 * float64(i+1) // subnormal
			}
			m.Write64(uint64(0x3000+i*8), math.Float64bits(v))
		}
	}
	checkEquivalence(t, b.MustBuild(), init)
}

// taintedLoadGadget builds a Spectre-shaped gadget: a branch whose
// predicate depends on a slow (cache-missing) load guards an access
// instruction feeding a dependent transmitter load. While the branch is
// unresolved, everything in its shadow is speculative, so the dependent
// load's address is tainted under both attack models.
func taintedLoadGadget() (*isa.Program, func(*isa.Memory)) {
	b := isa.NewBuilder().
		MovI(isa.R1, 0x6000).   // A: array of pointers
		MovI(isa.R2, 0).        // i
		MovI(isa.R3, 200).      // iterations
		MovI(isa.R4, 0).        // accumulator
		MovI(isa.R10, 0x40000). // bounds array, 64B stride: misses every time
		MovI(isa.R11, 0).
		Label("loop").
		Load(isa.R9, isa.R10, 0).     // slow load: branch predicate source
		AddI(isa.R10, isa.R10, 64).   // next line
		Beq(isa.R9, isa.R11, "skip"). // never taken, but resolves slowly
		Load(isa.R5, isa.R1, 0).      // access instruction (speculative)
		Load(isa.R6, isa.R5, 0).      // transmitter: tainted address
		Add(isa.R4, isa.R4, isa.R6).
		Label("skip").
		AddI(isa.R1, isa.R1, 8).
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "loop").
		Halt()
	init := func(m *isa.Memory) {
		for i := 0; i < 200; i++ {
			m.Write64(uint64(0x6000+i*8), uint64(0x8000+(i%10)*64))
			m.Write64(uint64(0x40000+i*64), uint64(i+1)) // nonzero bounds
		}
		for i := 0; i < 10; i++ {
			m.Write64(uint64(0x8000+i*64), uint64(i))
		}
	}
	return b.MustBuild(), init
}

func TestSTTDelaysTaintedLoads(t *testing.T) {
	prog, init := taintedLoadGadget()
	for _, m := range []AttackModel{Spectre, Futuristic} {
		core, _ := runOn(t, SchemeSTT, m, false, "", prog, init)
		st := core.Stats()
		if st.DelayedLoads == 0 {
			t.Errorf("%v: STT should delay dependent loads (got 0)", m)
		}
		if st.LoadDelayCycles == 0 {
			t.Errorf("%v: STT should accumulate delay cycles", m)
		}
	}
}

func TestSDOIssuesOblLoads(t *testing.T) {
	prog, init := taintedLoadGadget()
	for _, m := range []AttackModel{Spectre, Futuristic} {
		core, _ := runOn(t, SchemeSDO, m, true, "l2", prog, init)
		st := core.Stats()
		if st.OblIssued == 0 {
			t.Errorf("%v: SDO should issue Obl-Lds", m)
		}
		if st.OblSuccess+st.OblFail == 0 {
			t.Errorf("%v: Obl-Lds should resolve", m)
		}
		if st.Validations+st.Exposures == 0 {
			t.Errorf("%v: resolved Obl-Lds need validations or exposures", m)
		}
	}
}

func TestUnsafeNeverDelaysOrObls(t *testing.T) {
	prog, init := taintedLoadGadget()
	core, _ := runOn(t, SchemeUnsafe, Spectre, false, "", prog, init)
	st := core.Stats()
	if st.DelayedLoads != 0 || st.OblIssued != 0 {
		t.Errorf("unsafe config ran protection machinery: %+v", st)
	}
}

func TestProtectionOrdering(t *testing.T) {
	// On a dependent-load workload: Unsafe <= SDO(perfect) <= STT in
	// execution time (allowing equality).
	prog, init := taintedLoadGadget()
	for _, m := range []AttackModel{Spectre, Futuristic} {
		unsafe, _ := runOn(t, SchemeUnsafe, m, false, "", prog, init)
		stt, _ := runOn(t, SchemeSTT, m, false, "", prog, init)
		sdoP, _ := runOn(t, SchemeSDO, m, true, "perfect", prog, init)
		cu, cs, cp := unsafe.Stats().Cycles, stt.Stats().Cycles, sdoP.Stats().Cycles
		if cu > cs {
			t.Errorf("%v: unsafe (%d) slower than STT (%d)", m, cu, cs)
		}
		if cp > cs+cs/20 {
			t.Errorf("%v: SDO-perfect (%d) much slower than STT (%d)", m, cp, cs)
		}
	}
}

func TestPerfectPredictorNeverSquashesOnOblFail(t *testing.T) {
	prog, init := taintedLoadGadget()
	for _, m := range []AttackModel{Spectre, Futuristic} {
		core, _ := runOn(t, SchemeSDO, m, true, "perfect", prog, init)
		st := core.Stats()
		if st.Squashes[sqOblFail] != 0 {
			t.Errorf("%v: perfect predictor caused %d obl-fail squashes", m, st.Squashes[sqOblFail])
		}
		if st.PredInaccurate != 0 {
			t.Errorf("%v: perfect predictor recorded %d inaccurate predictions", m, st.PredInaccurate)
		}
	}
}

func TestStaticL1CausesFailSquashes(t *testing.T) {
	// The gadget's first loads stream through 200*8 bytes: cold misses
	// guarantee the L1 predictor fails sometimes (B before C happens under
	// Spectre because the loop branch depends on untainted counters).
	prog, init := taintedLoadGadget()
	core, _ := runOn(t, SchemeSDO, Spectre, true, "l1", prog, init)
	st := core.Stats()
	if st.OblFail == 0 {
		t.Error("static L1 should see Obl-Ld failures on this workload")
	}
}

func TestBranchMispredictsRecover(t *testing.T) {
	// Alternating unpredictable branches based on loaded data.
	b := isa.NewBuilder().
		MovI(isa.R1, 0x9000).
		MovI(isa.R2, 0).
		MovI(isa.R3, 100).
		MovI(isa.R4, 0).
		MovI(isa.R7, 0).
		Label("loop").
		Load(isa.R5, isa.R1, 0).
		Beq(isa.R5, isa.R7, "zero").
		AddI(isa.R4, isa.R4, 2).
		Jmp("next").
		Label("zero").
		AddI(isa.R4, isa.R4, 1).
		Label("next").
		AddI(isa.R1, isa.R1, 8).
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "loop").
		Halt()
	prog := b.MustBuild()
	// Pseudo-random pattern.
	init := func(m *isa.Memory) {
		x := uint64(12345)
		for i := 0; i < 100; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			m.Write64(uint64(0x9000+i*8), (x>>33)&1)
		}
	}
	checkEquivalence(t, prog, init)
	core, _ := runOn(t, SchemeUnsafe, Spectre, false, "", prog, init)
	if core.Stats().BranchMispredicts == 0 {
		t.Error("random branch pattern should mispredict sometimes")
	}
	if core.Stats().Squashes[sqBranch] == 0 {
		t.Error("mispredicts should squash")
	}
}

func TestMemOrderViolationDetected(t *testing.T) {
	// A store whose address arrives late (dependent on a slow divide),
	// with a younger load to the same address that executes earlier: the
	// load speculatively reads stale memory and must be squashed when the
	// store's address resolves.
	prog := isa.NewBuilder().
		MovI(isa.R1, 0x7000).
		MovI(isa.R3, 7).
		MovI(isa.R4, 49).
		MovI(isa.R8, 99).
		Div(isa.R5, isa.R4, isa.R3).     // 7, slow
		Mul(isa.R5, isa.R5, isa.R5).     // 49
		AddI(isa.R5, isa.R5, 0x7000-49). // 0x7000
		Store(isa.R8, isa.R5, 0).        // address resolves late
		Load(isa.R6, isa.R1, 0).         // must read 99
		Halt().
		MustBuild()
	checkEquivalence(t, prog, nil)
	core, _ := runOn(t, SchemeUnsafe, Spectre, false, "", prog, nil)
	if core.Regs()[isa.R6] != 99 {
		t.Fatalf("load read %d, want 99", core.Regs()[isa.R6])
	}
}

func TestHaltOnWrongPathDoesNotStopSim(t *testing.T) {
	// A mispredicted branch that falls through into Halt must not halt the
	// machine once the misprediction is repaired.
	b := isa.NewBuilder().
		MovI(isa.R1, 1).
		MovI(isa.R2, 1).
		Beq(isa.R1, isa.R2, "go"). // always taken; cold predictor says not-taken
		Halt().                    // wrong path
		Label("go").
		MovI(isa.R3, 42).
		Halt()
	prog := b.MustBuild()
	core, _ := runOn(t, SchemeUnsafe, Spectre, false, "", prog, nil)
	if core.Regs()[isa.R3] != 42 {
		t.Fatalf("R3 = %d, want 42", core.Regs()[isa.R3])
	}
}

func TestRdCycMonotone(t *testing.T) {
	prog := isa.NewBuilder().
		RdCyc(isa.R1).
		MovI(isa.R5, 1000).
		Label("spin").
		AddI(isa.R5, isa.R5, -1).
		MovI(isa.R9, 0).
		Bne(isa.R5, isa.R9, "spin").
		RdCyc(isa.R2).
		Halt().
		MustBuild()
	core, _ := runOn(t, SchemeUnsafe, Spectre, false, "", prog, nil)
	r := core.Regs()
	if r[isa.R2] <= r[isa.R1] {
		t.Fatalf("rdcyc not monotone: %d then %d", r[isa.R1], r[isa.R2])
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	s.Squashes[sqBranch] = 3
	s.Squashes[sqOblFail] = 2
	if s.TotalSquashes() != 5 {
		t.Fatal("TotalSquashes")
	}
	m := s.SquashesByCause()
	if m["branch"] != 3 || m["obl-fail"] != 2 {
		t.Fatalf("by cause: %v", m)
	}
	s.Cycles, s.Committed = 100, 250
	if s.IPC() != 2.5 {
		t.Fatalf("IPC = %v", s.IPC())
	}
}

func TestProtectionStrings(t *testing.T) {
	if SchemeUnsafe.Name() != "Unsafe" || SchemeSTT.Name() != "STT" || SchemeSDO.Name() != "STT+SDO" {
		t.Fatal("protection names")
	}
	if Spectre.String() != "Spectre" || Futuristic.String() != "Futuristic" {
		t.Fatal("model names")
	}
}
