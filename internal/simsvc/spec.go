package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/specexec"
)

// speculation is the service's safe-prediction layer (ISSUE 6 / the
// paper's thesis applied one level up): it learns which sweeps tend to
// follow which from the submission history and pre-executes the
// predicted cells on idle workers into the content-addressed result
// cache. Mispredicted work is squashed by context cancellation the
// moment demand work needs the slot, leaving nothing behind but sound
// cache entries; the governor bounds the wasted compute.
type speculation struct {
	svc   *Service
	pred  *specexec.Predictor
	gov   *specexec.Governor
	track *specexec.Tracker

	mu        sync.Mutex
	stopped   bool
	launching bool
	pending   []RunSpec
	active    int
	wg        sync.WaitGroup

	predictions   *obs.Counter  // candidates that contributed cells
	cellsExecuted *obs.Counter  // speculative cells run to completion
	hits          *obs.Counter  // demand cells served by speculation
	cancellations *obs.Counter  // speculative cells squashed mid-run
	specNanos     atomic.Uint64 // wall time of speculative execution (exported in seconds)
	wastedNanos   atomic.Uint64 // the cancelled/failed/expired share (exported in seconds)
}

// specMaxCells bounds cells pre-executed per prediction round.
const specMaxCells = 64

// newSpeculation wires the predictor, governor and tracker from the
// service config (confidence and hit-rate thresholds are specexec's own
// defaults) and declares the engine's metrics. Called only when
// cfg.Speculate is set.
func newSpeculation(s *Service) *speculation {
	r := s.reg
	sp := &speculation{
		svc:   s,
		pred:  specexec.NewPredictor(specexec.PredictorConfig{JournalPath: s.cfg.SpecJournal}),
		gov:   specexec.NewGovernor(specexec.GovernorConfig{BudgetCPU: s.cfg.SpecBudget}),
		track: specexec.NewTracker(0),

		predictions:   r.NewCounter("sdo_spec_predictions_total", "Prediction candidates that contributed pre-executable cells."),
		cellsExecuted: r.NewCounter("sdo_spec_cells_preexecuted_total", "Speculative cells run to completion into the result cache."),
		hits:          r.NewCounter("sdo_spec_hits_total", "Demand cells served by speculative pre-execution."),
		cancellations: r.NewCounter("sdo_spec_cancellations_total", "Speculative cells squashed mid-run by demand arrival or shutdown."),
	}
	r.NewCounterFunc("sdo_spec_cpu_seconds_total", "Wall time spent executing speculative cells.",
		func() float64 { return float64(sp.specNanos.Load()) / 1e9 })
	r.NewCounterFunc("sdo_spec_wasted_cpu_seconds_total", "Speculative wall time wasted (cancelled, failed or expired unclaimed).",
		func() float64 { return float64(sp.wastedNanos.Load()) / 1e9 })
	r.NewGaugeFunc("sdo_spec_throttle_state", "Speculation governor state: 0 ok, 1 throttled (low hit-rate), 2 exhausted (budget spent).",
		func() float64 { return float64(sp.gov.State()) })
	r.NewGaugeFunc("sdo_spec_backlog", "Speculative cells queued or running.",
		func() float64 { return float64(sp.backlog()) })
	return sp
}

// event emits a ClassSpec observability event.
func (sp *speculation) event(kind, detail string) {
	if sp.svc.rec.On(obs.ClassSpec) {
		sp.svc.rec.Emit(obs.Event{Class: obs.ClassSpec, Kind: kind, Detail: detail})
	}
}

// normalizedRequest rebuilds the canonical request document from
// resolved options, so equivalent submissions (explicit vs defaulted
// fields) sign identically in the predictor's history. Defaults are
// normalized to absent fields, matching the documents the predictor's
// mutation heuristics produce.
func normalizedRequest(opt harness.Options, ablations bool) SweepRequest {
	warm := opt.WarmupInstrs
	nr := SweepRequest{
		MaxInstrs:      opt.MaxInstrs,
		WarmupInstrs:   &warm,
		IntervalCycles: opt.IntervalCycles,
		Ablations:      ablations,
	}
	for _, wl := range opt.Workloads {
		nr.Workloads = append(nr.Workloads, wl.Name)
	}
	if !ablations {
		for _, v := range opt.Variants {
			nr.Variants = append(nr.Variants, v.String())
		}
	}
	for _, m := range opt.Models {
		nr.Models = append(nr.Models, m.String())
	}
	if opt.WarmupMode == core.WarmupFunctional {
		nr.WarmupMode = opt.WarmupMode.String()
	}
	if opt.SimMode == harness.SimSampled {
		nr.SimMode = string(opt.SimMode)
		nr.SampleIntervalInstrs = opt.Sample.IntervalInstrs
		nr.SampleMaxK = opt.Sample.MaxK
		nr.SampleSeed = opt.Sample.Seed
	}
	return nr
}

// observe records one demand submission in the predictor's history and
// advances the tracker's staleness round (entries no demand submission
// claims eventually expire as waste).
func (sp *speculation) observe(opt harness.Options, ablations bool) {
	raw, err := json.Marshal(normalizedRequest(opt, ablations))
	if err != nil {
		return
	}
	sub := specexec.Submission{Sig: specexec.Signature(raw), Raw: raw}
	sp.pred.Observe(sub)
	if expired, cpu := sp.track.Advance(); expired > 0 {
		per := cpu / time.Duration(expired)
		for i := 0; i < expired; i++ {
			sp.gov.Waste(per)
		}
		sp.wastedNanos.Add(uint64(cpu))
		sp.event("spec-expired", fmt.Sprintf("%d unclaimed entries expired (%s wasted)", expired, cpu.Round(time.Millisecond)))
	}
}

// preempt squashes speculative work the moment demand work arrives:
// queued-but-unstarted speculative cells are dropped, and running
// speculative cells whose key the demand submission does not need are
// cancelled (the in-pipeline check hook observes the context within a
// few thousand cycles — well under one cell boundary). Cells the new
// submission does need are left running; its demand cells will join
// them as waiters (a speculation hit).
func (sp *speculation) preempt(keep map[string]bool) {
	sp.mu.Lock()
	sp.pending = nil
	sp.mu.Unlock()
	s := sp.svc
	s.mu.Lock()
	for key, f := range s.inflight {
		if f.spec && !f.claimed && !keep[key] && f.cancel != nil {
			f.cancel()
		}
	}
	s.mu.Unlock()
}

// kick schedules a launch pass if one is not already running. Called
// whenever idle capacity may have appeared or prediction context may
// have changed: job completion and speculative-cell completion.
func (sp *speculation) kick() {
	sp.mu.Lock()
	if sp.stopped || sp.launching {
		sp.mu.Unlock()
		return
	}
	sp.launching = true
	sp.wg.Add(1)
	sp.mu.Unlock()
	go func() {
		defer sp.wg.Done()
		sp.launch()
	}()
}

// launch starts speculative cells while (and only while) the demand
// queue is empty and workers sit idle; it refills the backlog from the
// predictor when it runs dry.
func (sp *speculation) launch() {
	defer func() {
		sp.mu.Lock()
		sp.launching = false
		sp.mu.Unlock()
	}()
	s := sp.svc
	for {
		if s.ctx.Err() != nil || !sp.gov.Allow() || s.pool.QueueDepth() > 0 {
			return
		}
		sp.mu.Lock()
		if sp.stopped {
			sp.mu.Unlock()
			return
		}
		if len(sp.pending) == 0 {
			quiescent := sp.active == 0
			sp.mu.Unlock()
			// Refill only from a quiescent state: re-predicting while
			// cells from the last round still run would re-enqueue them.
			if !quiescent || !sp.refill() {
				return
			}
			sp.mu.Lock()
			if len(sp.pending) == 0 {
				sp.mu.Unlock()
				return
			}
		}
		if s.IdleWorkers()-sp.active <= 0 {
			sp.mu.Unlock()
			return
		}
		spec := sp.pending[0]
		sp.pending = sp.pending[1:]
		sp.active++
		sp.wg.Add(1)
		sp.mu.Unlock()
		go func() {
			defer sp.wg.Done()
			sp.runCell(spec)
			sp.mu.Lock()
			sp.active--
			sp.mu.Unlock()
			sp.kick()
		}()
	}
}

// refill runs one prediction round: candidates are resolved through the
// same request-resolution path demand submissions use, their cells
// deduplicated against the cache and in-flight runs, and the remainder
// becomes the speculative backlog. Reports whether any work was added.
func (sp *speculation) refill() bool {
	s := sp.svc
	cands := sp.pred.Predict()
	if len(cands) == 0 {
		return false
	}
	seen := make(map[string]bool)
	var cells []RunSpec
	for _, cand := range cands {
		if len(cells) >= specMaxCells {
			break
		}
		var req SweepRequest
		if err := json.Unmarshal(cand.Raw, &req); err != nil {
			continue
		}
		_, specs, err := s.resolve(req)
		if err != nil {
			continue
		}
		used := false
		for _, c := range specs {
			if len(cells) >= specMaxCells {
				break
			}
			key, err := c.CacheKey()
			if err != nil || seen[key] || s.cache.Contains(key) {
				continue
			}
			s.mu.Lock()
			_, running := s.inflight[key]
			s.mu.Unlock()
			if running {
				continue
			}
			seen[key] = true
			cells = append(cells, c)
			used = true
		}
		if used {
			sp.predictions.Inc()
			sp.event("predict", fmt.Sprintf("%s: sig %s conf %.2f", cand.Reason, cand.Sig, cand.Confidence))
		}
	}
	if len(cells) == 0 {
		return false
	}
	sp.mu.Lock()
	if sp.stopped {
		sp.mu.Unlock()
		return false
	}
	sp.pending = append(sp.pending, cells...)
	sp.mu.Unlock()
	return true
}

// runCell pre-executes one predicted cell. It registers a cancellable
// speculative flight under the same in-flight map demand cells use, so
// a demand cell arriving mid-run joins it (claiming it as a hit) instead
// of re-simulating; a completed unclaimed run lands in the cache and is
// tracked for later credit or expiry.
func (sp *speculation) runCell(spec RunSpec) {
	s := sp.svc
	key, err := spec.CacheKey()
	if err != nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, dup := s.inflight[key]; dup || s.cache.Contains(key) {
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	s.inflight[key] = &flight{spec: true, cancel: cancel}
	s.mu.Unlock()
	defer cancel()

	k := spec.Key()
	sp.event("spec-start", cellName(k))
	// The pre-execution gets a standalone trace rooted at a spec-preexec
	// span (nil with tracing off). If the demand request it predicted
	// arrives, the whole tree is stitched under the demand cell's root.
	ct := s.tracer.StartSpecCell(cellName(k))
	r, _, elapsed, err := s.execute(trace.NewContext(ctx, ct.Root()), spec, true, nil)

	var ce *harness.CellError
	switch {
	case err == nil:
		s.cache.Put(key, r)
		sp.cellsExecuted.Inc()
		claimed := s.settle(key, k, settlement{res: r, status: "speculated", note: "  [speculated]", pre: ct})
		if claimed {
			sp.gov.Hit(elapsed)
		} else {
			sp.track.Add(key, elapsed)
			s.tracer.TrackSpec(key, ct)
		}
		sp.event("spec-executed", fmt.Sprintf("%s in %s (claimed=%t)",
			cellName(k), elapsed.Round(time.Millisecond), claimed))
	case errors.Is(err, context.Canceled):
		sp.cancellations.Inc()
		ct.Root().Set("squashed", "true")
		s.settle(key, k, settlement{err: ErrCancelled, status: "cancelled", pre: ct})
		sp.event("spec-cancelled", fmt.Sprintf("%s after %s", cellName(k), elapsed.Round(time.Millisecond)))
	case errors.As(err, &ce):
		// A claimed speculation that failed permanently degrades its
		// demand waiters exactly as a demand execution would have; an
		// unclaimed one has no waiters and is simply dropped.
		if s.settle(key, k, settlement{err: ce, status: "failed", pre: ct}) {
			sp.event("spec-failed", ce.Error())
		} else {
			sp.event("spec-failed", fmt.Sprintf("%s: %v", cellName(k), err))
		}
	default:
		s.settle(key, k, settlement{err: ErrCancelled, status: "error", pre: ct})
		sp.event("spec-failed", fmt.Sprintf("%s: %v", cellName(k), err))
	}
	if err != nil {
		sp.wastedNanos.Add(uint64(elapsed))
		sp.gov.Waste(elapsed)
	}
	if state := sp.gov.State(); state != specexec.StateOK {
		sp.event("spec-throttled", state.String())
	}
}

// stop drains the speculation engine: no new launches, pending work
// dropped, running cells cancelled, and every goroutine joined. Called
// from Shutdown after s.cancel() (which already cancels cell contexts).
func (sp *speculation) stop() {
	sp.mu.Lock()
	sp.stopped = true
	sp.pending = nil
	sp.mu.Unlock()
	s := sp.svc
	s.mu.Lock()
	for _, f := range s.inflight {
		if f.spec && f.cancel != nil {
			f.cancel()
		}
	}
	s.mu.Unlock()
	sp.wg.Wait()
}

// backlog reports queued-plus-running speculative cells (the CI smoke
// polls this to know when pre-execution settled).
func (sp *speculation) backlog() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.pending) + sp.active
}

// SpecStatus is the /spec document: predictor, governor and scheduler
// state plus the live candidate list.
type SpecStatus struct {
	Enabled       bool                   `json:"enabled"`
	Predictor     specexec.Stats         `json:"predictor"`
	Governor      specexec.GovernorStats `json:"governor"`
	Predictions   uint64                 `json:"predictions_total"`
	CellsExecuted uint64                 `json:"cells_preexecuted_total"`
	Hits          uint64                 `json:"hits_total"`
	Cancellations uint64                 `json:"cancellations_total"`
	Backlog       int                    `json:"backlog"`
	Unclaimed     int                    `json:"unclaimed_entries"`
	Candidates    []specexec.Candidate   `json:"candidates,omitempty"`
}

// SpecStatus snapshots the speculation engine (zero value when
// speculation is disabled).
func (s *Service) SpecStatus() SpecStatus {
	if s.spec == nil {
		return SpecStatus{}
	}
	sp := s.spec
	return SpecStatus{
		Enabled:       true,
		Predictor:     sp.pred.Snapshot(),
		Governor:      sp.gov.Snapshot(),
		Predictions:   sp.predictions.Value(),
		CellsExecuted: sp.cellsExecuted.Value(),
		Hits:          sp.hits.Value(),
		Cancellations: sp.cancellations.Value(),
		Backlog:       sp.backlog(),
		Unclaimed:     sp.track.Len(),
		Candidates:    sp.pred.Predict(),
	}
}

func (s *Service) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.SpecStatus())
}
