package attack

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// FP-channel image layout.
const (
	fpChainBase  = 0x2_0000 // two-hop pointer chain delaying the guard
	fpSecretAddr = 0x3_0000 // the speculatively-accessed float64
)

// buildFPChannel builds the floating-point variant of the attack (§I-A):
// a doomed-to-squash fmul consumes a speculatively-accessed float64. If
// the machine lets the transient multiply run on its operand-dependent
// slow path, the hardware resource usage depends on whether the secret is
// subnormal — precisely the channel STT{ld+fp} and SDO close. The leak is
// observed via Stats.FPSlowPathExecs (the resource-usage ground truth).
func buildFPChannel(secret float64) (*isa.Program, func(*isa.Memory)) {
	b := isa.NewBuilder()
	b.MovI(isa.R10, fpChainBase)
	b.MovI(isa.R11, fpSecretAddr)
	b.MovI(isa.R12, 64) // out-of-bounds index (any value >= the loaded bound)
	// Guard value arrives after a two-hop cold pointer chase (~2x DRAM),
	// keeping the transient window comfortably longer than the secret load.
	b.Load(isa.R1, isa.R10, 0) // first hop
	b.Load(isa.R2, isa.R1, 0)  // second hop: the bound
	b.Bge(isa.R12, isa.R2, "out").
		// Transient path: load the secret float and multiply it.
		Load(isa.R3, isa.R11, 0).
		FMul(isa.R4, isa.R3, isa.R3).
		FMul(isa.R5, isa.R4, isa.R3)
	b.Label("out")
	b.Halt()
	prog := b.MustBuild()
	init := func(m *isa.Memory) {
		m.Write64(fpChainBase, fpChainBase+0x4000)
		m.Write64(fpChainBase+0x4000, 16) // bound: 64 >= 16 => branch taken
		m.Write64(fpSecretAddr, math.Float64bits(secret))
	}
	return prog, init
}

// FPOutcome reports one FP-channel run.
type FPOutcome struct {
	Variant core.Variant
	Model   pipeline.AttackModel
	// SlowPathExecs counts transient operand-dependent slow-path FP
	// executions: non-zero means the channel is open.
	SlowPathExecs uint64
	Stats         pipeline.Stats
}

// RunFPChannel runs the transient-FP experiment for one configuration.
func RunFPChannel(variant core.Variant, model pipeline.AttackModel, secret float64) (FPOutcome, error) {
	prog, init := buildFPChannel(secret)
	m := core.NewMachine(core.Config{Variant: variant, Model: model}, prog, init)
	res, err := m.Run()
	if err != nil {
		return FPOutcome{}, fmt.Errorf("attack: %w", err)
	}
	if !res.Halted {
		return FPOutcome{}, fmt.Errorf("attack: FP-channel program did not halt")
	}
	return FPOutcome{
		Variant:       variant,
		Model:         model,
		SlowPathExecs: res.FPSlowPathExecs,
		Stats:         res.Stats,
	}, nil
}
