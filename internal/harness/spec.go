package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// keySchema versions the cache-key derivation. Bump it whenever anything
// that feeds a simulation but is not captured below changes semantics —
// in particular the workload kernels' *initial memory images* (their
// seeded PRNG fills live in init functions the key cannot observe; the
// program text itself is fingerprinted) or the simulated
// microarchitecture (pipeline/mem defaults).
// v2: RunSpec gained IntervalCycles (interval time series ride along in
// the cached core.Result, so two runs differing only in sampling
// cadence are distinct cache entries).
// v3: RunSpec gained WarmupMode (functional warmup produces different —
// exactly-bounded, non-speculative — warm state than detailed warmup, so
// the two modes are distinct cache entries).
// v4: RunSpec gained SimMode and the sampling parameters (interval
// length, max k, seed). A sampled result is a reconstruction, not a
// measurement, so it must never answer a detailed query (or vice versa),
// and two sampled runs with different sampling parameters are distinct
// entries.
// v5: the variant is keyed by its scheme NAME instead of its integer
// id. Variant ids beyond Table II were then assigned in registration
// order at init, so a build that registered schemes in a different order
// could have aliased another build's entries; names were
// order-independent. The scheme table has since closed (SafeSpec and
// SpecBox are constants), and names still key it. Old v4 entries were
// invalidated (never corrupted) — the schema string feeds the hash, so
// v4 and v5 keys cannot collide.
const keySchema = "sdo-cache-v5"

// RunSpec identifies one simulation cell — a suite workload by name,
// under one variant, model and ablation, with its budgets and modes — in
// the exact terms the cache key is derived from. It is what Executor.Run
// executes, what the simulation service caches under CacheKey, and (as
// JSON, field names as declared) what a stolen cell carries between
// cluster nodes.
type RunSpec struct {
	Workload       string
	Variant        core.Variant
	Model          pipeline.AttackModel
	WarmupInstrs   uint64
	MaxInstrs      uint64
	IntervalCycles uint64
	WarmupMode     core.WarmupMode
	Ablate         core.Ablation

	// SimMode is detailed or sampled ("" means detailed). The sampling
	// parameters below are zero unless SimMode is sampled.
	SimMode        SimMode
	SampleInterval uint64
	SampleMaxK     int
	SampleSeed     uint64
}

// simMode normalizes the zero value ("") to detailed, so specs built
// before SimMode existed (and ablation cells, which are always detailed)
// key identically to explicit detailed cells.
func (s RunSpec) simMode() SimMode {
	if s.SimMode == "" {
		return SimDetailed
	}
	return s.SimMode
}

// Key names the spec's cell in results: its workload, variant, model and
// ablation. Within one sweep or study the budgets and modes are common,
// so the key tells its cells apart.
func (s RunSpec) Key() Key {
	return Key{Workload: s.Workload, Variant: s.Variant, Model: s.Model, Ablate: s.Ablate}
}

// Specs enumerates the sweep grid (Cells, duplicates dropped) as run
// specs. A sampled spec carries the sampling config TunedSampleConfig
// resolves for its workload: unset fields come from the per-workload
// table (set ones always win), so the cache key names what actually ran.
func (o Options) Specs() []RunSpec {
	o = o.Normalized()
	cells := o.Cells()
	seen := make(map[Key]bool, len(cells))
	specs := make([]RunSpec, 0, len(cells))
	for _, k := range cells {
		if seen[k] {
			continue
		}
		seen[k] = true
		s := RunSpec{
			Workload:       k.Workload,
			Variant:        k.Variant,
			Model:          k.Model,
			WarmupInstrs:   o.WarmupInstrs,
			MaxInstrs:      o.MaxInstrs,
			IntervalCycles: o.IntervalCycles,
			WarmupMode:     o.WarmupMode,
			SimMode:        o.SimMode,
		}
		if o.SimMode == SimSampled {
			cfg := TunedSampleConfig(k.Workload, o.Sample)
			s.SampleInterval, s.SampleMaxK, s.SampleSeed = cfg.IntervalInstrs, cfg.MaxK, cfg.Seed
		}
		specs = append(specs, s)
	}
	return specs
}

// AblationSpecs enumerates the design-space study's cells: per model and
// workload, the Unsafe baseline and one Hybrid cell per AblationRows row,
// which Results.AblationExport reads back by key. Ablation cells are
// always detailed and carry no interval series.
func (o Options) AblationSpecs() []RunSpec {
	o = o.Normalized()
	rows := AblationRows()
	var specs []RunSpec
	for _, m := range o.Models {
		for _, wl := range o.Workloads {
			base := RunSpec{
				Workload:     wl.Name,
				Variant:      core.Unsafe,
				Model:        m,
				WarmupInstrs: o.WarmupInstrs,
				MaxInstrs:    o.MaxInstrs,
				WarmupMode:   o.WarmupMode,
			}
			specs = append(specs, base)
			for _, row := range rows {
				s := base
				s.Variant = core.Hybrid
				s.Ablate = row.Ablate
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// GridAndStudySpecs is the sweep grid's cells (Specs) followed by the
// design-space study's (AblationSpecs) that the grid does not name: one
// list for a run that reports both, in which each workload's Unsafe and
// unablated Hybrid cells, named by both, simulate once. A shared cell
// keeps the grid's spec; the study reads only its cycles.
func (o Options) GridAndStudySpecs() []RunSpec {
	specs := o.Specs()
	grid := make(map[Key]bool, len(specs))
	for _, s := range specs {
		grid[s.Key()] = true
	}
	for _, s := range o.AblationSpecs() {
		if !grid[s.Key()] {
			specs = append(specs, s)
		}
	}
	return specs
}

// programs memoizes per-workload program facts: Build is deterministic
// per name, so they are a function of the name.
var programs sync.Map // string -> programFacts

// programFacts is what a cell's key and its representative need to know
// of a workload's generated program.
type programFacts struct {
	// fingerprint hashes the program text: every instruction's opcode,
	// registers, immediate and branch target. It makes the cache key
	// content-addressed with respect to the kernel's code, so editing a
	// kernel invalidates its cached results without a schema bump.
	fingerprint string
	// fpFree reports that no instruction is an FP transmitter
	// (core.FPFree, the premise of core.Representative's FP clause).
	fpFree bool
}

// programOf builds a workload's program once and derives its facts.
func programOf(name string) (programFacts, error) {
	if p, ok := programs.Load(name); ok {
		return p.(programFacts), nil
	}
	wl, err := workload.ByName(name)
	if err != nil {
		return programFacts{}, err
	}
	prog, _ := wl.Build()
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	p := programFacts{fpFree: core.FPFree(prog)}
	for _, in := range prog.Instrs {
		writeInt(int64(in.Op))
		writeInt(int64(in.Rd))
		writeInt(int64(in.Rs))
		writeInt(int64(in.Rt))
		writeInt(in.Imm)
		writeInt(int64(in.Target))
	}
	p.fingerprint = hex.EncodeToString(h.Sum(nil)[:16])
	programs.Store(name, p)
	return p, nil
}

// Representative returns the cell whose simulation provably equals s's
// (core.Representative): s itself, or s under another variant or model.
// A sweep holding both simulates only the representative, under the one
// CacheKey they share. A spec naming no suite workload is its own
// representative (its CacheKey fails).
func (s RunSpec) Representative() RunSpec {
	p, err := programOf(s.Workload)
	if err != nil {
		return s
	}
	return s.representative(p)
}

// representative is Representative for a workload whose facts are p.
func (s RunSpec) representative(p programFacts) RunSpec {
	s.Variant, s.Model = core.Representative(s.Variant, s.Model, p.fpFree)
	return s
}

// CacheKey derives the content-addressed cache key of what s simulates,
// its Representative: a SHA-256 over the canonical encoding of
// everything that determines a run's result — workload identity (name +
// program fingerprint), the registered protection scheme (by name, see
// the v5 note above), attack model, warmup and measurement budgets, and
// the ablation flags. Equivalent cells therefore share one key, which is
// the representative's own.
func (s RunSpec) CacheKey() (string, error) {
	p, err := programOf(s.Workload)
	if err != nil {
		return "", err
	}
	s = s.representative(p)
	// The hashed text, appended field by field (fmt would box each one):
	// keySchema|wl=%s|prog=%s|scheme=%s|model=%d|warmup=%d|max=%d|interval=%d|wmode=%d|ablate=%t,%t,%t,%t|sim=%s|sinterval=%d|smaxk=%d|sseed=%d
	var buf [256]byte
	b := append(buf[:0], keySchema+"|wl="...)
	b = append(append(append(b, s.Workload...), "|prog="...), p.fingerprint...)
	b = append(append(b, "|scheme="...), s.Variant.String()...)
	b = strconv.AppendInt(append(b, "|model="...), int64(s.Model), 10)
	b = strconv.AppendUint(append(b, "|warmup="...), s.WarmupInstrs, 10)
	b = strconv.AppendUint(append(b, "|max="...), s.MaxInstrs, 10)
	b = strconv.AppendUint(append(b, "|interval="...), s.IntervalCycles, 10)
	b = strconv.AppendInt(append(b, "|wmode="...), int64(s.WarmupMode), 10)
	b = strconv.AppendBool(append(b, "|ablate="...), s.Ablate.DisableEarlyForward)
	b = strconv.AppendBool(append(b, ','), s.Ablate.AlwaysValidate)
	b = strconv.AppendBool(append(b, ','), s.Ablate.NoImplicitChannelProtection)
	b = strconv.AppendBool(append(b, ','), s.Ablate.OblDRAMVariant)
	b = append(append(b, "|sim="...), s.simMode()...)
	b = strconv.AppendUint(append(b, "|sinterval="...), s.SampleInterval, 10)
	b = strconv.AppendInt(append(b, "|smaxk="...), int64(s.SampleMaxK), 10)
	b = strconv.AppendUint(append(b, "|sseed="...), s.SampleSeed, 10)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
