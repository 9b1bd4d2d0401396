package pipeline

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sdo"
)

// oblScenario builds a program with one controllable taint window and one
// tainted load, so the Obl-Ld event orderings (§V-C2) can be forced:
//
//	windowHops  controls when the load becomes safe (event C): the guard
//	            branch's predicate sits behind a pointer chase of that many
//	            cold DRAM hops.
//	pred        controls when the Obl-Ld completes (event B): deeper
//	            predictions take longer.
//
// The tainted load's data is pre-cached in the L1, so the lookup always
// succeeds and the only variables are the B/C/D orderings.
func oblScenario(t *testing.T, windowHops int, pred mem.Level, model AttackModel) (*Core, Stats) {
	t.Helper()
	const (
		chainBase = 0x1_0000
		hotBase   = 0x2_0000
		srcBase   = 0x3_0000
	)
	b := isa.NewBuilder()
	b.MovI(isa.R10, chainBase)
	b.MovI(isa.R11, hotBase)
	b.MovI(isa.R12, srcBase)
	b.MovI(isa.R13, 64) // guard comparand

	// Warm the data the tainted load will touch.
	b.Load(isa.R1, isa.R12, 0) // source value (warms src line)
	b.Load(isa.R2, isa.R11, 0) // warms the hot line

	// Open the window: a guard whose predicate resolves after
	// `windowHops` cold chase loads. windowHops == 0 instead hangs the
	// guard off a 20-cycle divide of the warm source value — long enough
	// that the transmitter issues inside the window, short enough that the
	// window closes before a deep lookup completes. The guard is NOT
	// taken, so the gadget below is on the architectural path.
	if windowHops == 0 {
		b.MovI(isa.R7, 3)
		b.Load(isa.R3, isa.R12, 0)
		b.Div(isa.R3, isa.R3, isa.R7) // 2/3 = 0, after ~20 cycles
	} else {
		b.Add(isa.R3, isa.R10, isa.R0)
		for i := 0; i < windowHops; i++ {
			b.Load(isa.R3, isa.R3, 0)
		}
	}
	b.Blt(isa.R13, isa.R3, "out") // 64 < small value: never taken

	// In the window: an access instruction + the tainted transmitter.
	b.Load(isa.R4, isa.R12, 0) // access (L1 hit: warmed)
	b.And(isa.R4, isa.R4, isa.R13)
	b.Add(isa.R4, isa.R4, isa.R11)
	b.Load(isa.R5, isa.R4, 0) // tainted address; data warmed in L1
	b.Add(isa.R6, isa.R5, isa.R5)

	b.Label("out")
	b.Halt()
	prog := b.MustBuild()

	init := func(m *isa.Memory) {
		// A chase of exactly windowHops loads ending in the value 1 (so
		// the guard is not taken). Hops sit on distinct pages/rows.
		next := uint64(chainBase)
		for i := 0; i < windowHops-1; i++ {
			to := uint64(chainBase) + uint64(i+1)*0x4000
			m.Write64(next, to)
			next = to
		}
		if windowHops > 0 {
			m.Write64(next, 1)
		}
		m.Write64(srcBase, 2)
		m.Write64(hotBase, 0xabcd)
	}

	data := isa.NewMemory()
	init(data)
	h := mem.NewHierarchy(mem.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Scheme = SchemeSDO
	cfg.Model = model
	cfg.LocPred = sdo.Static{Level: pred}
	core := New(cfg, prog, data, h)
	st, err := core.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Fatal("did not halt")
	}
	return core, st
}

func TestOblCase1_BBeforeC(t *testing.T) {
	// Long window (3 cold hops ≈ 300+ cycles), shallow prediction: the
	// Obl-Ld completes long before the load becomes safe. Success path:
	// forward tainted, then validate/expose at safety.
	_, st := oblScenario(t, 3, mem.L1, Spectre)
	if st.OblIssued == 0 {
		t.Fatal("no Obl-Ld issued")
	}
	if st.OblSuccess == 0 {
		t.Fatalf("expected success (data warmed): %+v", st)
	}
	if st.OblFail != 0 {
		t.Fatalf("unexpected fails: %+v", st)
	}
	// L1 hit => exposure, not validation (§VI-A).
	if st.Exposures == 0 {
		t.Errorf("L1-hit Obl-Ld should expose: %+v", st)
	}
}

func TestOblCase2_CBeforeB(t *testing.T) {
	// Tiny window (guard on a register compare resolves almost instantly
	// relative to an L3-deep lookup): the load becomes safe before the
	// wait buffer fills, so a validation is issued at C (§V-C2 case 2/3).
	_, st := oblScenario(t, 0, mem.L3, Spectre)
	if st.OblIssued == 0 {
		t.Fatal("no Obl-Ld issued")
	}
	if st.Validations == 0 {
		t.Errorf("C-before-B should issue a validation: %+v", st)
	}
	if st.TotalSquashes() > 1 { // the guard branch may mispredict once
		t.Errorf("success path must not squash: %v", st.SquashesByCause())
	}
}

func TestOblEarlyForwardCounted(t *testing.T) {
	// C before B with the hit coming from the L1 while the prediction
	// points at the L3: once safe, the L1 response is forwarded without
	// waiting for the L3 response (§V-C2 optimisation).
	_, st := oblScenario(t, 0, mem.L3, Spectre)
	if st.OblEarlyForward == 0 {
		t.Errorf("early forward should trigger: %+v", st)
	}
}

func TestOblFailSquashesOnlyWhenSafe(t *testing.T) {
	// Prediction L1 but data evicted to L2: lookup fails; the squash must
	// not occur before the window closes, and exactly one obl-fail squash
	// happens in total.
	const (
		chainBase = 0x1_0000
		victim    = 0x5_0000
	)
	const srcLine = 0x6_0000
	b := isa.NewBuilder()
	b.MovI(isa.R10, chainBase)
	b.MovI(isa.R11, victim)
	b.MovI(isa.R12, srcLine)
	b.MovI(isa.R13, 64)
	// Put the victim line in L2 only: load it, then evict it from the
	// (8-way, 4KB-stride sets) L1 by touching nine conflicting lines. The
	// access load below uses a *different* line so it does not re-fetch
	// the victim.
	b.Load(isa.R1, isa.R11, 0)
	for i := 1; i <= 9; i++ {
		b.Load(isa.R2, isa.R11, int64(i*32768)) // same L1 set, different lines
	}
	b.Load(isa.R1, isa.R12, 0) // warm the access line
	b.RdCyc(isa.R9)
	// Window: two cold hops.
	b.Add(isa.R3, isa.R10, isa.R9)
	b.Sub(isa.R3, isa.R3, isa.R9)
	b.Load(isa.R3, isa.R3, 0)
	b.Load(isa.R3, isa.R3, 0)
	b.Blt(isa.R13, isa.R3, "out") // 64 < 1: never taken — gadget is architectural
	// Access load (separate line) feeding a tainted load to the evicted
	// victim line: Static L1 prediction fails.
	b.Load(isa.R4, isa.R12, 0) // access: value 0
	b.Add(isa.R4, isa.R4, isa.R11)
	b.Load(isa.R5, isa.R4, 0) // tainted address = victim: L2-resident
	b.Label("out")
	b.Halt()
	prog := b.MustBuild()
	init := func(m *isa.Memory) {
		m.Write64(chainBase, chainBase+0x4000)
		m.Write64(chainBase+0x4000, 1)
		m.Write64(victim, 0)
		m.Write64(srcLine, 0)
	}
	data := isa.NewMemory()
	init(data)
	h := mem.NewHierarchy(mem.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Scheme = SchemeSDO
	cfg.Model = Spectre
	cfg.LocPred = sdo.Static{Level: mem.L1}
	core := New(cfg, prog, data, h)
	st, err := core.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The victim load is tainted only while the guard is unresolved; its
	// Obl-Ld (L1-predicted) fails because the line is L2-resident.
	if st.OblFail == 0 {
		t.Fatalf("L1-predicted lookup of an L2-resident line must fail: %+v", st)
	}
	if st.Squashes[sqOblFail] == 0 {
		t.Errorf("fail should squash once safe: %v", st.SquashesByCause())
	}
	// After the squash the load re-executes normally and the program
	// completes with the correct value.
	if !core.Halted() {
		t.Fatal("did not halt after fail-squash-reissue")
	}
}

func TestInvariantsHoldDuringRun(t *testing.T) {
	// Step a protected core cycle-by-cycle over a gadget-heavy program and
	// check structural invariants every cycle.
	prog, init := taintedLoadGadget()
	for _, mdl := range []AttackModel{Spectre, Futuristic} {
		data := isa.NewMemory()
		init(data)
		h := mem.NewHierarchy(mem.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Scheme = SchemeSDO
		cfg.Model = mdl
		cfg.LocPred = sdo.NewHybrid(512)
		core := New(cfg, prog, data, h)
		for !core.Halted() && core.Cycle() < 300_000 {
			if err := core.Step(); err != nil {
				t.Fatal(err)
			}
			if err := core.CheckInvariants(); err != nil {
				t.Fatalf("%v cycle %d: %v", mdl, core.Cycle(), err)
			}
		}
		if !core.Halted() {
			t.Fatalf("%v: did not halt", mdl)
		}
	}
}

func TestWatchdogFiresOnStuckCore(t *testing.T) {
	// A pathological configuration: zero-size IQ budget means nothing can
	// dispatch past the first instructions and the watchdog must trip
	// rather than hang.
	prog := isa.NewBuilder().
		MovI(isa.R1, 5).
		Add(isa.R2, isa.R1, isa.R1).
		Halt().
		MustBuild()
	cfg := DefaultConfig()
	cfg.IQSize = 0 // the ALU op can never dispatch
	cfg.WatchdogCycles = 500
	core := New(cfg, prog, isa.NewMemory(), mem.NewHierarchy(mem.DefaultConfig()))
	if _, err := core.Run(); err == nil {
		t.Fatal("watchdog should have fired")
	}
}

func TestMemPredictedLoadsRevertToDelay(t *testing.T) {
	// A predictor that always answers "DRAM" must produce zero Obl-Lds:
	// pure STT behaviour, no squashes from SDO.
	prog, init := taintedLoadGadget()
	data := isa.NewMemory()
	init(data)
	h := mem.NewHierarchy(mem.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Scheme = SchemeSDO
	cfg.Model = Futuristic
	cfg.LocPred = sdo.Static{Level: mem.LevelMem}
	core := New(cfg, prog, data, h)
	st, err := core.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.OblIssued != 0 {
		t.Fatalf("Mem-predicted loads must not issue Obl-Lds: %d", st.OblIssued)
	}
	if st.OblPredMem == 0 {
		t.Fatal("expected predicted-DRAM delays")
	}
	if st.Squashes[sqOblFail] != 0 {
		t.Fatal("delaying cannot cause obl-fail squashes")
	}
}

func TestSerializingRdCyc(t *testing.T) {
	// Two rdcyc reads bracketing a cold load must measure at least the
	// DRAM latency; bracketing nothing must measure almost nothing.
	prog := isa.NewBuilder().
		MovI(isa.R1, 0x9_0000).
		RdCyc(isa.R2).
		And(isa.R5, isa.R2, isa.R0). // dependence so the load can't hoist
		Add(isa.R6, isa.R1, isa.R5).
		Load(isa.R3, isa.R6, 0). // cold: DRAM
		RdCyc(isa.R4).
		RdCyc(isa.R7).
		RdCyc(isa.R8).
		Halt().
		MustBuild()
	core := New(DefaultConfig(), prog, isa.NewMemory(), mem.NewHierarchy(mem.DefaultConfig()))
	if _, err := core.Run(); err != nil {
		t.Fatal(err)
	}
	r := core.Regs()
	loadLat := r[isa.R4] - r[isa.R2]
	empty := r[isa.R8] - r[isa.R7]
	if loadLat < 100 {
		t.Errorf("bracketed cold load measured %d cycles, want >= 100", loadLat)
	}
	if empty > 20 {
		t.Errorf("empty bracket measured %d cycles, want small", empty)
	}
}

func TestAblationKnobs(t *testing.T) {
	// Each knob must change behaviour in the expected direction without
	// changing architectural results.
	prog, init := taintedLoadGadget()
	goldenMem := isa.NewMemory()
	init(goldenMem)
	golden, err := arch.Exec(prog, goldenMem, nil, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mut func(*Config)) (Stats, [isa.NumRegs]uint64) {
		data := isa.NewMemory()
		init(data)
		h := mem.NewHierarchy(mem.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Scheme = SchemeSDO
		cfg.Model = Futuristic
		cfg.LocPred = sdo.NewHybrid(512)
		if mut != nil {
			mut(&cfg)
		}
		core := New(cfg, prog, data, h)
		st, err := core.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st, core.Regs()
	}
	check := func(name string, regs [isa.NumRegs]uint64) {
		t.Helper()
		for r := 0; r < isa.NumRegs; r++ {
			if regs[r] != golden.Regs[r] {
				t.Fatalf("%s: r%d = %d, golden %d", name, r, regs[r], golden.Regs[r])
			}
		}
	}

	base, regs := run(nil)
	check("base", regs)

	noEF, regs := run(func(c *Config) { c.DisableEarlyForward = true })
	check("no-early-forward", regs)
	if base.OblEarlyForward > 0 && noEF.OblEarlyForward != 0 {
		t.Errorf("early forwards still counted when disabled: %d", noEF.OblEarlyForward)
	}

	av, regs := run(func(c *Config) { c.AlwaysValidate = true })
	check("always-validate", regs)
	// Only store-forwarded Obl-Lds may still expose.
	if av.Exposures > av.OblIssued/10 && av.Exposures > base.Exposures {
		t.Errorf("always-validate should suppress exposures: %d vs base %d", av.Exposures, base.Exposures)
	}
	if av.Validations <= base.Validations {
		t.Errorf("always-validate should increase validations: %d vs %d", av.Validations, base.Validations)
	}

	noICP, regs := run(func(c *Config) { c.NoImplicitChannelProtection = true })
	check("no-implicit-channel-protection", regs)
	if noICP.DelayedResolutions != 0 {
		t.Errorf("implicit-channel protection off should never park resolutions: %d", noICP.DelayedResolutions)
	}

	dram, regs := run(func(c *Config) { c.OblDRAMVariant = true })
	check("obl-dram", regs)
	if dram.OblPredMem != 0 {
		t.Errorf("DO DRAM variant should never revert to delay: %d", dram.OblPredMem)
	}
}
