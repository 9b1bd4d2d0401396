// Package obs is the simulator's observability layer: a typed, zero-cost-
// when-disabled event bus with pluggable sinks (human text, JSONL, Chrome
// trace-event JSON, bounded ring buffer), plus small Prometheus-style
// metric helpers for the simulation service.
//
// Design rule: every emission site is guarded by Recorder.On, which is a
// nil-receiver method — with no recorder attached an instrumented hot path
// costs one nil check and no allocation. Event construction (including any
// fmt work for the Detail field) happens only inside the guard.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Class is a bitmask of event categories. Sinks receive only events whose
// class is enabled in the recorder's mask, so a trace can be narrowed to
// (say) squashes and SDO activity without paying for cache noise.
type Class uint32

const (
	// ClassRename covers rename/dispatch of instructions into the ROB.
	ClassRename Class = 1 << iota
	// ClassIssue covers instructions leaving the issue queue (loads,
	// stores, SDO FP operations).
	ClassIssue
	// ClassCommit covers in-order retirement.
	ClassCommit
	// ClassSquash covers pipeline squashes, with their cause.
	ClassSquash
	// ClassBranch covers branch resolutions (direction, mispredictions).
	ClassBranch
	// ClassCache covers cache hits/misses and MSHR merges per level.
	ClassCache
	// ClassDRAM covers DRAM row-buffer hits and conflicts.
	ClassDRAM
	// ClassTLB covers TLB misses on the normal translation path.
	ClassTLB
	// ClassSDO covers the Obl-Ld state machine: issue, validate, expose,
	// early-forward, drop and fail.
	ClassSDO
	// ClassFP covers SDO floating-point fast-path issue and failure.
	ClassFP
	// ClassFault covers fault-tolerance activity above the pipeline:
	// cell failures (panics, timeouts, simulation errors), cache read and
	// write failures, persistence degradation, and peer trouble.
	ClassFault
	// ClassSample covers SimPoint-style sampled simulation above the
	// pipeline: BBV profiling passes, clustering outcomes (sampling-plan
	// builds) and sampled-cell reconstruction.
	ClassSample
	// ClassTrace covers sweep-lifecycle tracing above the pipeline: cell
	// phase spans rendered through the Chrome sink (internal/obs/trace)
	// and slow-cell straggler warnings.
	ClassTrace

	numClasses = 13
)

// ClassAll enables every event class.
const ClassAll Class = 1<<numClasses - 1

// classNames maps the canonical spelling of each class (used by
// ParseClasses and the JSONL/Chrome sinks).
var classNames = map[Class]string{
	ClassRename: "rename",
	ClassIssue:  "issue",
	ClassCommit: "commit",
	ClassSquash: "squash",
	ClassBranch: "branch",
	ClassCache:  "cache",
	ClassDRAM:   "dram",
	ClassTLB:    "tlb",
	ClassSDO:    "sdo",
	ClassFP:     "fp",
	ClassFault:  "fault",
	ClassSample: "sample",
	ClassTrace:  "trace",
}

// ClassNames returns the canonical class names in stable order.
func ClassNames() []string {
	out := make([]string, 0, len(classNames))
	for _, n := range classNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the mask as a comma-separated class list.
func (c Class) String() string {
	if c == ClassAll {
		return "all"
	}
	var parts []string
	for bit := Class(1); bit < 1<<numClasses; bit <<= 1 {
		if c&bit != 0 {
			parts = append(parts, classNames[bit])
		}
	}
	return strings.Join(parts, ",")
}

// ParseClasses parses a comma-separated class list ("squash,sdo,cache")
// into a mask. "all" (or "") selects every class.
func ParseClasses(s string) (Class, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return ClassAll, nil
	}
	byName := make(map[string]Class, len(classNames))
	for c, n := range classNames {
		byName[n] = c
	}
	var mask Class
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if part == "" {
			continue
		}
		c, ok := byName[part]
		if !ok {
			return 0, fmt.Errorf("obs: unknown event class %q (known: %s, or \"all\")",
				part, strings.Join(ClassNames(), ","))
		}
		mask |= c
	}
	if mask == 0 {
		return 0, fmt.Errorf("obs: empty event-class list %q", s)
	}
	return mask, nil
}

// Event is one observation. Numeric fields are structured so machine sinks
// (JSONL, Chrome) can index them; Detail carries the human-readable rest
// and is what the text sink prints. Zero-valued optional fields are
// omitted from JSON.
type Event struct {
	Cycle uint64 `json:"cycle"`
	Class Class  `json:"-"`
	// Kind names the event within its class: "rename", "issue-load",
	// "obl-validate", "cache-miss", "dram-row-hit", ...
	Kind   string `json:"kind"`
	Seq    uint64 `json:"seq,omitempty"`
	PC     int    `json:"pc,omitempty"`
	Addr   uint64 `json:"addr,omitempty"`
	Level  string `json:"level,omitempty"`
	Dur    uint64 `json:"dur,omitempty"` // cycles, for span-shaped events
	Detail string `json:"detail,omitempty"`
}

// ClassName returns the canonical name of the event's class.
func (e Event) ClassName() string { return classNames[e.Class] }
