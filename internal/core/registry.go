package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sdo"
)

// SchemeInfo describes one registered protection scheme: the metadata
// CLI parsing, the /variants endpoint and the docs surface, plus the
// Configure hook that translates the scheme into pipeline settings.
type SchemeInfo struct {
	// Name is the display name (Table II spelling for the paper's rows).
	Name string `json:"name"`
	// Aliases are the exact alternative spellings ParseVariant accepts.
	Aliases []string `json:"aliases,omitempty"`
	// Description is the one-line Table II description column.
	Description string `json:"description"`
	// SDO marks schemes that run Obl-Lds (Variant.IsSDO).
	SDO bool `json:"sdo,omitempty"`
	// TableII marks the paper's eight evaluated rows: Variants() returns
	// exactly these, keeping the published golden sweeps reproducible.
	TableII bool `json:"table2,omitempty"`
	// Configure applies the scheme to a pipeline Config. probe is the
	// hierarchy's presence oracle (the Perfect predictor needs it).
	Configure func(pc *pipeline.Config, probe func(uint64) mem.Level) `json:"-"`
}

// registry holds every known scheme, indexed by Variant. The first
// numVariants entries are the Table II rows in const order; schemes
// registered later (SafeSpec, SpecBox, ...) append after them.
// Package-level initialization order guarantees builtinSchemes runs
// before any RegisterScheme in a dependent var declaration.
var registry = builtinSchemes()

func builtinSchemes() []SchemeInfo {
	stt := func(fp bool) func(pc *pipeline.Config, _ func(uint64) mem.Level) {
		return func(pc *pipeline.Config, _ func(uint64) mem.Level) {
			pc.Scheme = pipeline.SchemeSTT
			pc.FPTransmitters = fp
		}
	}
	// All SDO configurations treat loads and FP micro-ops as
	// transmitters with architected DO operations (§VIII-A).
	sdoCfg := func(pred func(probe func(uint64) mem.Level) sdo.LocationPredictor) func(pc *pipeline.Config, probe func(uint64) mem.Level) {
		return func(pc *pipeline.Config, probe func(uint64) mem.Level) {
			pc.Scheme = pipeline.SchemeSDO
			pc.FPTransmitters = true
			pc.LocPred = pred(probe)
		}
	}
	static := func(l mem.Level) func(func(uint64) mem.Level) sdo.LocationPredictor {
		return func(func(uint64) mem.Level) sdo.LocationPredictor { return sdo.Static{Level: l} }
	}
	return []SchemeInfo{
		Unsafe: {
			Name: "Unsafe", Aliases: []string{"unsafe"}, TableII: true,
			Description: "An unmodified insecure processor",
			Configure: func(pc *pipeline.Config, _ func(uint64) mem.Level) {
				pc.Scheme = pipeline.SchemeUnsafe
				pc.FPTransmitters = false
			},
		},
		STTLd: {
			Name: "STT{ld}", Aliases: []string{"stt", "stt{ld}", "sttld"}, TableII: true,
			Description: "STT, delaying the execution of unsafe loads only",
			Configure:   stt(false),
		},
		STTLdFp: {
			Name: "STT{ld+fp}", Aliases: []string{"stt{ld+fp}", "sttldfp", "stt+fp"}, TableII: true,
			Description: "STT, delaying the execution of unsafe loads and fmult/div/fsqrt micro-ops",
			Configure:   stt(true),
		},
		StaticL1: {
			Name: "Static L1", Aliases: []string{"static-l1", "static l1", "l1"}, SDO: true, TableII: true,
			Description: "SDO with predictor always predicting L1 D-Cache",
			Configure:   sdoCfg(static(mem.L1)),
		},
		StaticL2: {
			Name: "Static L2", Aliases: []string{"static-l2", "static l2", "l2"}, SDO: true, TableII: true,
			Description: "SDO with predictor always predicting L2",
			Configure:   sdoCfg(static(mem.L2)),
		},
		StaticL3: {
			Name: "Static L3", Aliases: []string{"static-l3", "static l3", "l3"}, SDO: true, TableII: true,
			Description: "SDO with predictor always predicting L3",
			Configure:   sdoCfg(static(mem.L3)),
		},
		Hybrid: {
			Name: "Hybrid", Aliases: []string{"hybrid"}, SDO: true, TableII: true,
			Description: "SDO with proposed hybrid location predictor (Section V-D)",
			Configure: sdoCfg(func(func(uint64) mem.Level) sdo.LocationPredictor {
				return sdo.NewHybrid(512) // ≈4KB of predictor state
			}),
		},
		Perfect: {
			Name: "Perfect", Aliases: []string{"perfect"}, SDO: true, TableII: true,
			Description: "SDO with oracle predictor always predicting the correct level",
			Configure: sdoCfg(func(probe func(uint64) mem.Level) sdo.LocationPredictor {
				return sdo.Perfect{Probe: probe}
			}),
		},
	}
}

// RegisterScheme adds a protection scheme to the registry and returns
// its Variant id. Names and aliases must be unique across the registry
// (checked; a collision panics at init time). Registration order is
// deterministic — package-level var initialization — so Variant ids are
// stable within a build.
func RegisterScheme(info SchemeInfo) Variant {
	if info.Name == "" || info.Configure == nil {
		panic("core: RegisterScheme requires a Name and a Configure hook")
	}
	for _, s := range registry {
		if s.Name == info.Name {
			panic(fmt.Sprintf("core: scheme %q already registered", info.Name))
		}
		for _, a := range s.Aliases {
			for _, b := range info.Aliases {
				if a == b {
					panic(fmt.Sprintf("core: scheme alias %q already taken by %q", b, s.Name))
				}
			}
		}
	}
	registry = append(registry, info)
	return Variant(len(registry) - 1)
}

// The shadow-structure schemes: first-class variants outside Table II.
// Neither tracks taint — speculative loads execute immediately but fill
// per-core shadow structures (mem/spec.go) that are promoted on retire
// and discarded on squash, so squashed speculation leaves no
// cache-visible trace.
var (
	// SafeSpec fills a bounded per-core shadow cache and shadow TLB.
	SafeSpec = RegisterScheme(SchemeInfo{
		Name:        "SafeSpec",
		Aliases:     []string{"safespec", "safe-spec"},
		Description: "Shadow speculative cache+TLB; fills commit on retire, vanish on squash",
		Configure: func(pc *pipeline.Config, _ func(uint64) mem.Level) {
			pc.Scheme = pipeline.SchemeSafeSpec
			pc.FPTransmitters = false
		},
	})
	// SpecBox labels speculative lines invisible until commit.
	SpecBox = RegisterScheme(SchemeInfo{
		Name:        "SpecBox",
		Aliases:     []string{"specbox", "spec-box"},
		Description: "Speculation-labelled cache lines, invisible to probes until commit",
		Configure: func(pc *pipeline.Config, _ func(uint64) mem.Level) {
			pc.Scheme = pipeline.SchemeSpecBox
			pc.FPTransmitters = false
		},
	})
)

// Registered returns every registered variant in id order: the Table II
// rows first, then the registered additions. Sweeping this instead of
// Variants() covers the full defense zoo.
func Registered() []Variant {
	out := make([]Variant, len(registry))
	for i := range out {
		out[i] = Variant(i)
	}
	return out
}

// Schemes returns a copy of the registry's metadata in id order (the
// /variants endpoint document).
func Schemes() []SchemeInfo {
	out := make([]SchemeInfo, len(registry))
	copy(out, registry)
	return out
}

// schemeOf returns the registry entry for v, or nil when out of range.
func schemeOf(v Variant) *SchemeInfo {
	if v < 0 || int(v) >= len(registry) {
		return nil
	}
	return &registry[v]
}

// validNames returns every registered name, sorted, for error messages.
func validNames() string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
