package harness

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// Executor runs sweep cells. It is the one cell path: the CLI's sweeps
// and studies (RunSpecs) and the simulation service all execute a RunSpec
// through Run. An Executor holds
// the two per-workload artifacts cells are built from — the functional-
// warmup checkpoint of a (workload, warmup) and the sampling plan of a
// (workload, warmup, window, sampling config) — in a bounded in-process
// memo: the first cell to need one builds it, concurrent cells wait for
// that build, and later cells reuse it. Both builds are deterministic and
// cost milliseconds, so the memo is the only place an artifact lives; a
// new process builds its own, bit-identical one. The zero value is ready
// to use, and an Executor is safe for concurrent use.
type Executor struct {
	// Event, when non-nil, observes an artifact build that panicked
	// (kind "checkpoint-panic" or "plan-panic").
	Event func(kind, detail string)
	// PlanBuilt, when non-nil, observes every sampling-plan build. It runs
	// inside the build, so every cell waiting on the plan waits for it too.
	PlanBuilt func(workload string, sp *SamplePlan)

	ckpts memo[ckptKey, *arch.Checkpoint]
	plans memo[planKey, *SamplePlan]

	// Work counters: what the executor did, read by RunContext's Results
	// and by the service's /metrics.
	CheckpointsCaptured atomic.Uint64 // standalone or inside a plan
	CheckpointHits      atomic.Uint64 // cells that restored an existing checkpoint
	WarmupInstrs        atomic.Uint64 // warmup instructions actually simulated
	PlansBuilt          atomic.Uint64
	PlanHits            atomic.Uint64 // sampled cells that reused an existing plan
	ProfiledInstrs      atomic.Uint64 // functional instructions spent profiling BBVs
	SampledCells        atomic.Uint64
	SampledInstrs       atomic.Uint64 // detailed instructions executed by sampled cells
}

// Inside one process a workload name fixes its program, so a name stands
// for the workload in the memo keys.
type ckptKey struct {
	workload string
	warmup   uint64
}

type planKey struct {
	workload       string
	warmup, window uint64
	cfg            simpoint.Config
}

// Run executes one cell: it looks up the spec's workload, takes the
// cell's sampling plan or warmup checkpoint from the memo, and runs the
// cell under pol. A sampled cell runs its representative intervals one
// after the other (the caller's pool parallelises across cells), each a
// fault-isolated RunCell. Run returns the result and how long the
// simulation itself took — 0 exactly when none started (an unknown
// workload or a failed plan build). With a span in ctx (see
// trace.NewContext), the plan/checkpoint and simulate phases are recorded
// under it.
func (e *Executor) Run(ctx context.Context, spec RunSpec, pol RunPolicy) (core.Result, time.Duration, error) {
	wl, err := workload.ByName(spec.Workload)
	if err != nil {
		return core.Result{}, 0, err
	}
	parent := trace.FromContext(ctx)
	p := RunParams{
		WarmupInstrs:   spec.WarmupInstrs,
		MaxInstrs:      spec.MaxInstrs,
		IntervalCycles: spec.IntervalCycles,
		WarmupMode:     spec.WarmupMode,
	}
	var sp *SamplePlan
	switch {
	case spec.simMode() == SimSampled:
		// Warmup is accounted once, when the plan is built.
		ps := parent.Child(trace.PhasePlan)
		sp, err = e.SamplePlan(wl, spec.WarmupInstrs, spec.MaxInstrs,
			simpoint.Config{IntervalInstrs: spec.SampleInterval, MaxK: spec.SampleMaxK, Seed: spec.SampleSeed})
		ps.Finish()
		if err != nil {
			return core.Result{}, 0, err
		}
	case spec.WarmupMode == core.WarmupFunctional && spec.WarmupInstrs > 0:
		cks := parent.Child(trace.PhaseCheckpoint)
		if p.Checkpoint = e.Checkpoint(wl, spec.WarmupInstrs); p.Checkpoint == nil {
			// The capture failed: this cell warms in place instead
			// (bit-identical, just slower).
			e.WarmupInstrs.Add(spec.WarmupInstrs)
		}
		cks.Set("restored", strconv.FormatBool(p.Checkpoint != nil))
		cks.Finish()
	case spec.WarmupInstrs > 0:
		e.WarmupInstrs.Add(spec.WarmupInstrs)
	}
	var r core.Result
	sim := parent.Child(trace.PhaseSimulate)
	simCtx := trace.NewContext(ctx, sim)
	start := time.Now()
	if sp != nil {
		r, _, err = RunSampledCell(simCtx, 1, wl, spec.Variant, spec.Model, spec.Ablate, sp, p, pol, nil)
		if err == nil {
			e.SampledCells.Add(1)
			e.SampledInstrs.Add(sp.Plan.SampledInstrs())
		}
	} else {
		r, err = RunCell(simCtx, wl, spec.Variant, spec.Model, spec.Ablate, p, pol)
	}
	elapsed := time.Since(start)
	sim.Finish()
	return r, elapsed, err
}

// Checkpoint returns wl's functional-warmup checkpoint at warmup, capturing
// it on a miss. A capture that panics yields nil: the cell warms in place.
func (e *Executor) Checkpoint(wl workload.Workload, warmup uint64) *arch.Checkpoint {
	ck, _ := memoize(e, &e.ckpts, "checkpoint", ckptKey{wl.Name, warmup}, &e.CheckpointHits, func() (*arch.Checkpoint, error) {
		ck := CaptureCheckpoint(wl, warmup)
		e.CheckpointsCaptured.Add(1)
		e.WarmupInstrs.Add(ck.Arch.Instrs)
		return ck, nil
	})
	return ck
}

// SamplePlan returns wl's sampling plan for the window [warmup,
// warmup+window) under cfg, building it on a miss. A failed or panicking
// build is an error for this cell and every cell waiting on it.
func (e *Executor) SamplePlan(wl workload.Workload, warmup, window uint64, cfg simpoint.Config) (*SamplePlan, error) {
	return memoize(e, &e.plans, "plan", planKey{wl.Name, warmup, window, cfg}, &e.PlanHits, func() (*SamplePlan, error) {
		sp, err := BuildSamplePlan(wl, warmup, window, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: sample plan for %s: %w", wl.Name, err)
		}
		e.PlansBuilt.Add(1)
		e.ProfiledInstrs.Add(sp.Plan.ProfiledInstrs)
		n := len(sp.Checkpoints)
		e.CheckpointsCaptured.Add(uint64(n))
		// One continuous pass warms to the last boundary.
		e.WarmupInstrs.Add(sp.Checkpoints[n-1].Arch.Instrs)
		if e.PlanBuilt != nil {
			e.PlanBuilt(wl.Name, sp)
		}
		return sp, nil
	})
}

// memoMax bounds each memo to its most recently resolved keys. Keys carry
// client-chosen budgets and sampling seeds, so an unbounded memo would keep
// every plan and checkpoint a long-lived server ever built; an evicted one
// is rebuilt on the next ask.
const memoMax = 64

// memo is the singleflight memo for one artifact kind. Its zero value is
// empty and ready to use.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*memoFlight[V]
	// resolved holds the keys of finished flights, least recently resolved
	// first: the eviction order. A flight still building is not in it, so
	// it is never evicted.
	resolved []K
}

// memoFlight is one memo entry: the first caller to need it builds while
// later callers block on done; once done it is the memo's value.
type memoFlight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// memoize returns m's value for k, building it on a miss; a caller that
// reuses a finished or in-progress build counts a hit. A failed or
// panicking build is isolated: its caller and any blocked on the flight
// get the error, a panic is reported to e.Event as "<label>-panic", and
// the flight is dropped so a later caller builds again. Evicting an entry
// only forgets it: whoever holds the value keeps their reference.
func memoize[K comparable, V any](e *Executor, m *memo[K, V], label string, k K, hits *atomic.Uint64, build func() (V, error)) (V, error) {
	m.mu.Lock()
	if f, ok := m.flights[k]; ok {
		if i := slices.Index(m.resolved, k); i >= 0 {
			m.resolved = append(slices.Delete(m.resolved, i, i+1), k)
		}
		m.mu.Unlock()
		<-f.done
		if f.err == nil {
			hits.Add(1)
		}
		return f.v, f.err
	}
	if m.flights == nil {
		m.flights = make(map[K]*memoFlight[V])
	}
	f := &memoFlight[V]{done: make(chan struct{})}
	m.flights[k] = f
	m.mu.Unlock()
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("harness: %s build for %+v panicked: %v", label, k, r)
				if e.Event != nil {
					e.Event(label+"-panic", fmt.Sprintf("%+v: %v", k, r))
				}
			}
			close(f.done)
		}()
		f.v, f.err = build()
	}()
	m.mu.Lock()
	if f.err != nil {
		delete(m.flights, k)
	} else if m.resolved = append(m.resolved, k); len(m.resolved) > memoMax {
		delete(m.flights, m.resolved[0])
		m.resolved = slices.Delete(m.resolved, 0, 1)
	}
	m.mu.Unlock()
	return f.v, f.err
}
