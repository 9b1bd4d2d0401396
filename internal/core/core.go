// Package core is the public face of the simulator: it assembles the ISA,
// memory hierarchy, out-of-order pipeline, STT and SDO pieces into a
// Machine, names the paper's evaluated design variants (Table II), and
// returns uniform Results that the experiment harness, the examples and
// the benchmarks all consume.
package core

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/coherence"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Variant identifies one registered protection scheme. The first eight
// ids are the paper's Table II rows (the const block below); further
// schemes join via RegisterScheme (registry.go) without widening the
// default Table II sweep.
type Variant int

const (
	// Unsafe is the unmodified insecure processor.
	Unsafe Variant = iota
	// STTLd is STT delaying the execution of unsafe loads only.
	STTLd
	// STTLdFp is STT delaying unsafe loads and fmul/fdiv/fsqrt micro-ops.
	STTLdFp
	// StaticL1 is STT+SDO with the predictor always predicting the L1.
	StaticL1
	// StaticL2 always predicts the L2.
	StaticL2
	// StaticL3 always predicts the L3.
	StaticL3
	// Hybrid uses the paper's hybrid location predictor (§V-D).
	Hybrid
	// Perfect uses an oracle that always predicts the correct level.
	Perfect

	numVariants
)

// Variants returns the Table II rows in order — exactly the grid the
// published golden results sweep. Registered additions (SafeSpec,
// SpecBox, ...) are excluded deliberately; sweep Registered() for the
// full defense zoo.
func Variants() []Variant {
	out := make([]Variant, 0, numVariants)
	for i, s := range registry {
		if s.TableII {
			out = append(out, Variant(i))
		}
	}
	return out
}

// SDOVariants returns only the STT+SDO rows.
func SDOVariants() []Variant {
	return []Variant{StaticL1, StaticL2, StaticL3, Hybrid, Perfect}
}

// String returns the registered scheme name (Table II spelling for the
// paper's rows).
func (v Variant) String() string {
	if s := schemeOf(v); s != nil {
		return s.Name
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Description returns the scheme's one-line description (the Table II
// description column for the paper's rows).
func (v Variant) Description() string {
	if s := schemeOf(v); s != nil {
		return s.Description
	}
	return ""
}

// IsSDO reports whether the variant runs Obl-Lds.
func (v Variant) IsSDO() bool {
	s := schemeOf(v)
	return s != nil && s.SDO
}

// ParseVariant maps a name (registered spelling or a short alias) to a
// Variant. Unknown names report the full list of valid scheme names —
// the text surfaces verbatim in the simsvc HTTP 400 body.
func ParseVariant(s string) (Variant, error) {
	for i, info := range registry {
		if info.Name == s {
			return Variant(i), nil
		}
		for _, a := range info.Aliases {
			if a == s {
				return Variant(i), nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown variant %q (valid schemes: %s)", s, validNames())
}

// WarmupMode selects how Config.WarmupInstrs are executed.
type WarmupMode int

const (
	// WarmupDetailed runs warmup on the detailed pipeline (the default,
	// and the legacy behaviour the golden exports were produced with):
	// warm microarchitectural state reflects the variant's own
	// speculative execution, and warmup can overshoot WarmupInstrs by up
	// to the commit width.
	WarmupDetailed WarmupMode = iota
	// WarmupFunctional runs warmup on the functional emulator
	// (internal/arch), touch-warming caches, TLB and branch predictor
	// non-speculatively — the paper artifact's SimPoint-style functional
	// fast-forward. The handoff is exact (warmup executes exactly
	// WarmupInstrs instructions unless the program halts first), the
	// measurement window starts at cycle 0, and the warm state is
	// independent of variant/model/ablation — which is what makes one
	// warmup Checkpoint reusable across a whole sweep grid.
	WarmupFunctional
)

// String names the mode as ParseWarmupMode accepts it.
func (m WarmupMode) String() string {
	switch m {
	case WarmupDetailed:
		return "detailed"
	case WarmupFunctional:
		return "functional"
	}
	return fmt.Sprintf("WarmupMode(%d)", int(m))
}

// ParseWarmupMode maps a flag/request string to a WarmupMode. The empty
// string means the default (detailed).
func ParseWarmupMode(s string) (WarmupMode, error) {
	switch s {
	case "", "detailed":
		return WarmupDetailed, nil
	case "functional":
		return WarmupFunctional, nil
	}
	return 0, fmt.Errorf("core: unknown warmup mode %q (want detailed or functional)", s)
}

// Ablation toggles individual SDO/STT mechanisms for design-space studies
// (all false reproduces the paper's STT+SDO).
type Ablation struct {
	// DisableEarlyForward turns off §V-C2's early wait-buffer forwarding.
	DisableEarlyForward bool
	// AlwaysValidate disables InvisiSpec exposures.
	AlwaysValidate bool
	// NoImplicitChannelProtection measures the cost of STT's
	// implicit-channel rules by skipping them (INSECURE).
	NoImplicitChannelProtection bool
	// OblDRAMVariant architects the DO DRAM variant §VI-B2 rejects.
	OblDRAMVariant bool
}

// Config selects a design variant, attack model and run bounds.
type Config struct {
	Variant Variant
	Model   pipeline.AttackModel
	// Ablate optionally disables individual mechanisms (see Ablation).
	Ablate Ablation
	// WarmupInstrs runs this many committed instructions before the
	// measurement window, warming caches, TLB and predictors — the
	// SimPoint-style methodology of §VIII-A. Warmup activity is excluded
	// from the returned Result.
	WarmupInstrs uint64
	// WarmupMode selects detailed (default) or functional warmup.
	WarmupMode WarmupMode
	// MaxInstrs bounds committed instructions in the measurement window
	// (0: run to halt).
	MaxInstrs uint64
	// MaxCycles bounds simulated cycles (0: run to halt).
	MaxCycles uint64
	// IntervalCycles, when non-zero, samples an interval statistics point
	// every IntervalCycles cycles of the measurement window (warmup is
	// excluded) into Result.Intervals.
	IntervalCycles uint64
	// Check, when non-nil, is polled by the pipeline every few thousand
	// cycles with the current cycle/committed counts; a non-nil return
	// aborts the run with that error (cancellation, deadlines,
	// abandonment). Nil costs the pipeline one pointer compare per cycle.
	Check func(cycle, committed uint64) error
	// Mem overrides the Table I memory parameters when non-nil.
	Mem *mem.Config
	// Pipe overrides the Table I core parameters when non-nil (its
	// Scheme/Model/LocPred fields are overwritten from Variant/Model).
	Pipe *pipeline.Config
}

// Machine is a single-core simulated system ready to Run.
type Machine struct {
	cfg    Config
	pcfg   pipeline.Config
	core   *pipeline.Core
	hier   *mem.Hierarchy
	data   *isa.Memory
	prog   *isa.Program
	warmed bool // functional warmup already applied (in place or restored)
}

// pipelineConfig translates a Variant into pipeline settings.
func pipelineConfig(cfg Config, probe func(uint64) mem.Level) pipeline.Config {
	pc := pipeline.DefaultConfig()
	if cfg.Pipe != nil {
		pc = *cfg.Pipe
	}
	pc.Model = cfg.Model
	pc.DisableEarlyForward = cfg.Ablate.DisableEarlyForward
	pc.AlwaysValidate = cfg.Ablate.AlwaysValidate
	pc.NoImplicitChannelProtection = cfg.Ablate.NoImplicitChannelProtection
	pc.OblDRAMVariant = cfg.Ablate.OblDRAMVariant
	pc.MaxInstrs = cfg.MaxInstrs
	if cfg.MaxInstrs > 0 && cfg.WarmupMode == WarmupDetailed {
		// The budget is the measurement window; detailed warmup commits
		// on the same pipeline, so it is added here. Functional warmup
		// happens outside the pipeline and leaves the budget alone.
		pc.MaxInstrs += cfg.WarmupInstrs
	}
	pc.MaxCycles = cfg.MaxCycles
	pc.Check = cfg.Check
	s := schemeOf(cfg.Variant)
	if s == nil {
		panic(fmt.Sprintf("core: unregistered variant %d", int(cfg.Variant)))
	}
	s.Configure(&pc, probe)
	return pc
}

// geometry resolves the memory and pipeline parameters cfg selects: the
// Table I defaults unless overridden.
func geometry(cfg Config) (mem.Config, pipeline.Config) {
	mc, pc := mem.DefaultConfig(), pipeline.DefaultConfig()
	if cfg.Mem != nil {
		mc = *cfg.Mem
	}
	if cfg.Pipe != nil {
		pc = *cfg.Pipe
	}
	return mc, pc
}

// NewMachine builds a single-core machine for prog. init (optional)
// populates the initial memory image.
func NewMachine(cfg Config, prog *isa.Program, init func(*isa.Memory)) *Machine {
	return NewMachineWithMemory(cfg, prog, isa.NewImage(init))
}

// NewMachineWithMemory builds a single-core machine for prog on the given
// architectural memory, which the machine takes over: pass a private
// Clone of a shared initial image, or an empty memory when a checkpoint
// is about to be restored over it.
//
// The memory hierarchy comes from a process-wide pool when a machine
// before this one was Released with the same geometry, and is built
// otherwise; the two are indistinguishable (mem.Hierarchy.Reset).
func NewMachineWithMemory(cfg Config, prog *isa.Program, data *isa.Memory) *Machine {
	mc, _ := geometry(cfg)
	return newMachineOn(newHierarchy(mc), cfg, prog, data)
}

// newMachineOn builds the machine on the given memory hierarchy.
func newMachineOn(hier *mem.Hierarchy, cfg Config, prog *isa.Program, data *isa.Memory) *Machine {
	pc := pipelineConfig(cfg, hier.Probe)
	return &Machine{
		cfg:  cfg,
		pcfg: pc,
		core: pipeline.New(pc, prog, data, hier),
		hier: hier,
		data: data,
		prog: prog,
	}
}

// hierPool holds the hierarchies of Released machines, each reset to its
// as-built state. Building one allocates and zeroes ~1 MB of tag arrays,
// which a sweep would otherwise do once per cell and a sampled sweep once
// per interval.
var hierPool sync.Pool

// newHierarchy returns a single-core hierarchy of geometry mc in its
// as-built state: a pooled one when its geometry matches (one of another
// geometry is dropped for the collector), else a new one.
func newHierarchy(mc mem.Config) *mem.Hierarchy {
	if h, ok := hierPool.Get().(*mem.Hierarchy); ok && h.Config() == mc {
		return h
	}
	return mem.NewHierarchy(mc)
}

// Release resets the machine's memory hierarchy and hands it back for the
// next NewMachineWithMemory to reuse; resetting here rather than on reuse
// also drops the hierarchy's references to this machine's pipeline. The
// machine must not be used afterwards, and nothing else may still hold
// its Hierarchy: call it only once Run has returned, never on a machine a
// panic unwound out of.
func (m *Machine) Release() {
	m.hier.Reset()
	hierPool.Put(m.hier)
	m.hier, m.core = nil, nil
}

// CaptureCheckpoint runs functional warmup for prog/init under cfg's
// memory and pipeline geometry and snapshots the result. Only
// WarmupInstrs, Mem and Pipe are consulted: the checkpoint is independent
// of Variant, Model and Ablate by construction, which is what makes it
// reusable across every cell of a sweep grid.
func CaptureCheckpoint(cfg Config, prog *isa.Program, init func(*isa.Memory)) *arch.Checkpoint {
	mc, pc := geometry(cfg)
	return arch.Capture(prog, init, mc, pc.BP, pc.CodeBase, cfg.WarmupInstrs)
}

// CaptureCheckpoints is the multi-boundary form of CaptureCheckpoint:
// one continuous functional warmup pass over the initial image data
// (consumed: warmup writes to it), snapshotting at each of the given
// non-decreasing committed-instruction boundaries. It is the capture
// primitive for SimPoint-style sampled runs, where every representative
// interval needs a checkpoint at its start with warm state carried across
// the skipped intervals in between. Only Mem and Pipe are consulted, so
// the series is shared across every variant/model cell of a sweep.
func CaptureCheckpoints(cfg Config, prog *isa.Program, data *isa.Memory, boundaries []uint64) []*arch.Checkpoint {
	mc, pc := geometry(cfg)
	return arch.CaptureSeries(prog, data, mc, pc.BP, pc.CodeBase, boundaries)
}

// Restore loads a functional-warmup checkpoint into the machine before
// Run: the architectural memory image and registers, the warmed memory
// hierarchy and branch predictor state, and the fetch PC. The machine
// must be configured with WarmupFunctional and the WarmupInstrs the
// checkpoint was captured with; Run then goes straight to the
// measurement window. Restoring is bit-for-bit equivalent to performing
// the functional warmup in place (asserted by TestRestoreEquivalence).
//
// The memory image replaces whatever the machine held and is adopted by
// reference (isa.Memory.AdoptImage): the machine shares the checkpoint's
// pages and copies one before its first write to it, so ck is left
// unchanged by any number of restores, into this machine again or into
// machines running at the same time.
func (m *Machine) Restore(ck *arch.Checkpoint) error {
	if m.cfg.WarmupMode != WarmupFunctional {
		return fmt.Errorf("core: Restore requires WarmupMode == WarmupFunctional")
	}
	if ck.WarmupInstrs != m.cfg.WarmupInstrs {
		return fmt.Errorf("core: checkpoint captured with warmup %d, machine configured with %d",
			ck.WarmupInstrs, m.cfg.WarmupInstrs)
	}
	m.data.AdoptImage(ck.Mem)
	if err := m.hier.SetState(ck.Hier); err != nil {
		return err
	}
	if err := m.core.Predictor().SetState(ck.BP); err != nil {
		return err
	}
	m.core.RestoreArch(ck.Arch.Regs, ck.Arch.PC, ck.Arch.Halted)
	m.warmed = true
	return nil
}

// Memory returns the machine's architectural memory.
func (m *Machine) Memory() *isa.Memory { return m.data }

// Hierarchy returns the machine's memory hierarchy.
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }

// Regs returns the committed registers.
func (m *Machine) Regs() [isa.NumRegs]uint64 { return m.core.Regs() }

// Core exposes the underlying pipeline (stats, stepping, tracing).
func (m *Machine) Core() *pipeline.Core { return m.core }

// SetObserver attaches one event recorder to both the pipeline and the
// memory hierarchy, so a single set of sinks sees the whole machine.
// Pass nil to detach.
func (m *Machine) SetObserver(r *obs.Recorder) {
	m.core.SetObserver(r)
	m.hier.SetObserver(r)
}

// Result is one run's outcome.
type Result struct {
	Variant Variant
	Model   pipeline.AttackModel
	pipeline.Stats

	// Memory-system statistics.
	L1DHits, L1DMisses uint64
	L2Hits, L2Misses   uint64
	TLBMisses          uint64
	DRAMRowHits        uint64
	DRAMRowMisses      uint64

	// Interval time series (nil unless Config.IntervalCycles > 0).
	IntervalCycles uint64          `json:",omitempty"`
	Intervals      []IntervalPoint `json:",omitempty"`
	// Measurement-window ROB / load-queue occupancy histograms
	// (pipeline.OccupancyBuckets equal-width buckets over each
	// structure's capacity; nil unless interval sampling ran).
	ROBOccHist []uint64 `json:",omitempty"`
	LQOccHist  []uint64 `json:",omitempty"`
	// SampledWindows holds the per-representative interval series of a
	// sampled-mode reconstruction (harness.reconstructResult): one entry
	// per detailed-simulated representative window, each carrying the
	// cluster weight a consumer needs to recombine the series into a
	// whole-window estimate. Nil for detailed whole-window runs, whose
	// series lives in Intervals.
	SampledWindows []SampledWindow `json:",omitempty"`
}

// SampledWindow is the interval time series of one representative window
// of a sampled-mode run: the window's position in the measurement window,
// its cluster weight, and the per-interval points detailed simulation
// produced inside it. Windows do not tile the measurement window — the
// gaps between them were skipped by design — so time-series consumers
// must weight, not concatenate.
type SampledWindow struct {
	// Start and Len bound the window in committed instructions from the
	// start of the measurement window.
	Start uint64 `json:"start"`
	Len   uint64 `json:"len"`
	// Weight is the window's cluster weight (fractions sum to ~1 across
	// windows); an interval metric's whole-window estimate is the
	// weight-averaged combination across windows.
	Weight    float64         `json:"weight"`
	Intervals []IntervalPoint `json:"intervals"`
}

// Run simulates to halt (or the configured bounds) and gathers results.
// With WarmupInstrs set, statistics cover only the post-warmup window.
func (m *Machine) Run() (Result, error) {
	var base pipeline.Stats
	var err error
	if m.cfg.WarmupInstrs > 0 && !m.warmed {
		switch m.cfg.WarmupMode {
		case WarmupFunctional:
			// Warm in place with the functional emulator. This is the
			// same code path Restore replays from a checkpoint, so a
			// restored machine and a self-warmed one are bit-identical.
			st := arch.Warmup(m.prog, m.data, m.hier, m.core.Predictor(), m.pcfg.CodeBase, m.cfg.WarmupInstrs)
			m.core.RestoreArch(st.Regs, st.PC, st.Halted)
			m.warmed = true
		default:
			if err = m.core.RunUntilCommitted(m.cfg.WarmupInstrs); err != nil {
				return Result{Variant: m.cfg.Variant, Model: m.cfg.Model}, err
			}
			base = m.core.Stats()
		}
	}
	var ic *intervalCollector
	if m.cfg.IntervalCycles > 0 {
		// Enabled after warmup so the series covers exactly the
		// measurement window.
		ic = newIntervalCollector(m.hier)
		m.core.EnableIntervalSampling(m.cfg.IntervalCycles, ic.collect)
	}
	st, err := m.core.Run()
	r := Result{
		Variant: m.cfg.Variant,
		Model:   m.cfg.Model,
		Stats:   st.Sub(base),
	}
	if ic != nil {
		m.core.FlushInterval() // trailing partial interval
		r.IntervalCycles = m.cfg.IntervalCycles
		r.Intervals = ic.points
		rob, lq := m.core.OccupancyHistograms()
		r.ROBOccHist = append([]uint64(nil), rob[:]...)
		r.LQOccHist = append([]uint64(nil), lq[:]...)
	}
	r.L1DHits, r.L1DMisses = m.hier.L1D().Hits, m.hier.L1D().Misses
	r.L2Hits, r.L2Misses = m.hier.L2().Hits, m.hier.L2().Misses
	r.TLBMisses = m.hier.TLB().Misses
	d := m.hier.Shared().DRAMStats()
	r.DRAMRowHits, r.DRAMRowMisses = d.RowHits, d.RowMisses
	return r, err
}

// Multicore runs several cores in cycle lockstep over one coherent memory
// system and one shared architectural memory — enough to exercise the
// MESI-driven consistency machinery (§V-C1) with real cross-core traffic.
type Multicore struct {
	sys   *coherence.System
	cores []*pipeline.Core
	data  *isa.Memory
}

// NewMulticore builds one core per program, all sharing memory. init runs
// once on the shared image.
func NewMulticore(cfg Config, progs []*isa.Program, init func(*isa.Memory)) *Multicore {
	data := isa.NewImage(init)
	mcfg, _ := geometry(cfg)
	mcfg.L3Slices = len(progs)
	sys := coherence.NewSystem(mcfg, len(progs))
	mc := &Multicore{sys: sys, data: data}
	for i, p := range progs {
		port := sys.Core(i)
		pc := pipelineConfig(cfg, port.Probe)
		c := pipeline.New(pc, p, data, port)
		c.SetInvalidateHook(port.Hierarchy())
		mc.cores = append(mc.cores, c)
	}
	return mc
}

// Core returns core i's pipeline (for stats and registers).
func (m *Multicore) Core(i int) *pipeline.Core { return m.cores[i] }

// Memory returns the shared architectural memory.
func (m *Multicore) Memory() *isa.Memory { return m.data }

// System returns the coherence fabric.
func (m *Multicore) System() *coherence.System { return m.sys }

// Run steps every core in lockstep until all halt (or maxCycles elapses).
func (m *Multicore) Run(maxCycles uint64) error {
	for cycle := uint64(0); ; cycle++ {
		if maxCycles > 0 && cycle >= maxCycles {
			return fmt.Errorf("core: multicore run exceeded %d cycles", maxCycles)
		}
		running := false
		for _, c := range m.cores {
			if !c.Halted() {
				running = true
				if err := c.Step(); err != nil {
					return err
				}
			}
		}
		if !running {
			return nil
		}
	}
}
