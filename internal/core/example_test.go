package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// Example_quickstart builds a small program with the ISA builder, runs
// it on an insecure core and on two protected ones, and compares results
// and timing. All three compute the same sum: defenses change timing,
// never architectural results.
//
//	go test -run Example_quickstart -v ./internal/core
func Example_quickstart() {
	// A toy "database": an index array whose entries point into a value
	// table. Summing table[index[i]] creates load→load dependences, the
	// pattern speculative-execution defenses slow down.
	const (
		indexBase  = 0x1_0000
		tableBase  = 0x10_0000
		tableSlots = 1 << 15 // 256KB: L2-resident
		n          = 6000
	)
	prog := isa.NewBuilder().
		// Prime the value table (sequential, untainted-address loads), as a
		// real program would have touched its data before the hot loop.
		MovI(isa.R1, tableBase).
		MovI(isa.R2, 0).
		MovI(isa.R3, tableSlots/8). // one load per cache line
		Label("prime").
		Load(isa.R4, isa.R1, 0).
		AddI(isa.R1, isa.R1, 64).
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "prime").
		// The hot loop: sum += table[index[i]].
		MovI(isa.R1, indexBase).
		MovI(isa.R2, 0). // i
		MovI(isa.R3, n).
		MovI(isa.R4, 0).         // sum
		MovI(isa.R5, tableBase). //
		Label("loop").
		Load(isa.R6, isa.R1, 0). // idx = index[i]
		Add(isa.R6, isa.R6, isa.R5).
		Load(isa.R7, isa.R6, 0). // v = table[idx]  (tainted address!)
		Add(isa.R4, isa.R4, isa.R7).
		AddI(isa.R1, isa.R1, 8).
		AddI(isa.R2, isa.R2, 1).
		Blt(isa.R2, isa.R3, "loop").
		Halt().
		MustBuild()

	init := func(m *isa.Memory) {
		for i := 0; i < n; i++ {
			m.Write64(indexBase+uint64(i*8), uint64(i*2654435761%tableSlots)*8)
		}
		for i := 0; i < tableSlots; i++ {
			m.Write64(tableBase+uint64(i*8), uint64(i%977))
		}
	}

	for _, cfg := range []core.Config{
		{Variant: core.Unsafe},
		{Variant: core.STTLd, Model: pipeline.Futuristic},
		{Variant: core.Hybrid, Model: pipeline.Futuristic},
	} {
		m := core.NewMachine(cfg, prog, init)
		res, err := m.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s (%s): sum=%d, %d instructions in %d cycles (IPC %.2f)\n",
			cfg.Variant, cfg.Model, m.Regs()[isa.R4], res.Committed, res.Cycles, res.IPC())
	}
	// Output:
	// Unsafe     (Spectre): sum=2903757, 58393 instructions in 64145 cycles (IPC 0.91)
	// STT{ld}    (Futuristic): sum=2903757, 58393 instructions in 132629 cycles (IPC 0.44)
	// Hybrid     (Futuristic): sum=2903757, 58393 instructions in 68904 cycles (IPC 0.85)
}
