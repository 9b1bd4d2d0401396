package mem

import (
	"fmt"

	"repro/internal/obs"
)

// SetObserver attaches an event recorder to this core's view of the
// memory system. Cache hit/miss outcomes, MSHR merges, DRAM row-buffer
// hits/conflicts, and TLB misses emit typed events through it, filtered
// by the recorder's class mask. Pass nil to detach; with no recorder
// every emission site reduces to a nil check.
//
// core.Machine wires the same recorder here and into the pipeline
// (pipeline.Core.SetObserver) so a single sink sees both sides.
func (h *Hierarchy) SetObserver(r *obs.Recorder) { h.obs = r }

// Observer returns the attached recorder (nil when tracing is off).
func (h *Hierarchy) Observer() *obs.Recorder { return h.obs }

// emitAccess reports a completed normal-path walk: "cache-hit" for an L1
// hit, "cache-miss" (with the serving level) otherwise. Span-shaped so
// trace viewers render the access latency.
func (h *Hierarchy) emitAccess(now, addr uint64, write, ifetch bool, r AccessResult) {
	if !h.obs.On(obs.ClassCache) {
		return
	}
	kind := "cache-miss"
	if r.Level == L1 {
		kind = "cache-hit"
	}
	h.obs.Emit(obs.Event{Cycle: now, Class: obs.ClassCache, Kind: kind,
		Addr: addr, Level: r.Level.String(), Dur: r.Done - now,
		Detail: fmt.Sprintf("addr=%#x level=%v write=%v ifetch=%v done=%d",
			addr, r.Level, write, ifetch, r.Done)})
}

// emitMSHRMerge reports a miss merged into an outstanding MSHR at level at.
func (h *Hierarchy) emitMSHRMerge(now, addr uint64, at Level, done uint64) {
	if !h.obs.On(obs.ClassCache) {
		return
	}
	h.obs.Emit(obs.Event{Cycle: now, Class: obs.ClassCache, Kind: "mshr-merge",
		Addr: addr, Level: at.String(),
		Detail: fmt.Sprintf("addr=%#x merged-at=%v done=%d", addr, at, done)})
}

// emitDRAM reports one DRAM controller access as a row-buffer hit or
// conflict (row miss).
func (h *Hierarchy) emitDRAM(now, addr uint64, rowHit bool, done uint64) {
	if !h.obs.On(obs.ClassDRAM) {
		return
	}
	kind := "dram-row-conflict"
	if rowHit {
		kind = "dram-row-hit"
	}
	h.obs.Emit(obs.Event{Cycle: now, Class: obs.ClassDRAM, Kind: kind,
		Addr: addr, Dur: done - now,
		Detail: fmt.Sprintf("addr=%#x done=%d", addr, done)})
}

// emitTLBMiss reports a normal-path translation that missed the L1 TLB.
func (h *Hierarchy) emitTLBMiss(now, addr, done uint64) {
	if !h.obs.On(obs.ClassTLB) {
		return
	}
	h.obs.Emit(obs.Event{Cycle: now, Class: obs.ClassTLB, Kind: "tlb-miss",
		Addr: addr, Dur: done - now,
		Detail: fmt.Sprintf("addr=%#x page=%#x done=%d", addr, h.tlb.page(addr), done)})
}
