// Package simsvc is a long-running simulation service over the experiment
// harness: it accepts sweep jobs (any subset of workloads × Table II
// variants × attack models × instruction budgets), schedules the
// individual runs on a bounded worker pool with context-based
// cancellation, deduplicates identical in-flight runs, and stores
// completed results in a content-addressed cache (harness.RunSpec.CacheKey).
//
// Caching simulation results is sound because the simulator is fully
// deterministic (DESIGN.md "Determinism"): the same (workload, variant,
// model, warmup, budget, ablation) cell always produces bit-identical
// statistics, so a cached result is indistinguishable from a re-run.
package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Config configures a Service.
type Config struct {
	// Workers bounds concurrent simulations (0: GOMAXPROCS).
	Workers int
	// CachePath is the result-cache directory, one file per result,
	// which persists results across restarts ("" disables persistence;
	// the in-memory cache still works).
	CachePath string
	// CacheMaxBytes bounds the in-memory result cache's total encoded
	// size in bytes; least-recently-used results are evicted past the
	// bound and read back from their files on demand (0: unbounded).
	CacheMaxBytes int64

	// CellTimeout is a wall-clock deadline per cell (0: none). A cell
	// runs once; a failed one degrades its jobs.
	CellTimeout time.Duration
	// MaxPendingCells bounds the pending work queue: a submission whose
	// cells would push the queue past this bound is rejected with an
	// *OverloadError (HTTP 429 + Retry-After). 0: unbounded.
	MaxPendingCells int
	// JobTTL evicts finished jobs from the registry this long after they
	// reach a terminal state (0: no TTL eviction).
	JobTTL time.Duration
	// MaxJobs bounds the job registry; the oldest finished jobs are
	// evicted past the bound (0: default 4096). Running jobs are never
	// evicted.
	MaxJobs int
	// Recorder, when non-nil, receives every event the service emits —
	// ClassFault (failures, cache and peer trouble, lease expiries),
	// ClassSample (plan builds) and ClassTrace (sweep lifecycle, slow
	// cells) — filtered by its own class mask, behind the flight ring. It
	// is a test seam: no production caller sets it, and tests pass a
	// ClassSample sink that blocks on the synchronous "plan-built" event
	// to hold a plan build open.
	Recorder *obs.Recorder

	// Trace enables the sweep-lifecycle span model (internal/obs/trace):
	// GET /sweeps/{id}/trace serves a span tree per cell, exports carry a
	// per-cell latency attribution, and slow cells log a span breakdown.
	// Off by default; when off the tracer is nil and every span call in
	// the hot path degrades to a single nil check — results and exports
	// are byte-identical to a build without the subsystem. The most recent
	// 64 job traces are retained.
	Trace bool

	// Peers is the static peer list for failure-aware cache peering
	// (base URLs of other sdoserver nodes). A job's first local cache
	// miss asks the peers, in one POST /cache/lookup per peer, for every
	// key of the job the node does not hold, before simulating; every
	// peer failure degrades to local simulation (see internal/fabric).
	// Empty: peering off.
	Peers []string
	// PeerTimeout bounds each peer lookup request (0: fabric default).
	// No flag sets it: it is a seam for tests, like PeerProbeInterval.
	PeerTimeout time.Duration
	// PeerProbeInterval is the background peer health-probe period
	// (0: fabric default; negative: no prober). A test seam only.
	PeerProbeInterval time.Duration

	// OwnsID, when non-nil, restricts job-ID allocation to IDs it
	// accepts: the allocator skips numbers whose "sweep-N" this node does
	// not own. The cluster layer sets it to the rendezvous-ownership
	// predicate so distinct nodes allocate disjoint ID subsequences and
	// any node can resolve any ID's owner without coordination. Nil (the
	// default): every ID is owned — byte-identical single-node behavior.
	OwnsID func(id string) bool
	// WorkStealing keeps a registry of queued-but-unstarted cells that
	// cluster peers may claim under a lease via Service.StealCells (see
	// steal.go). Off by default.
	WorkStealing bool
	// StealLeaseTTL bounds how long the owner waits on a stolen cell
	// before reclaiming it locally (0: DefaultStealLeaseTTL).
	StealLeaseTTL time.Duration
}

// withDefaults fills the zero-value policy knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = harness.Options{Parallel: true}.Workers()
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.StealLeaseTTL <= 0 {
		c.StealLeaseTTL = DefaultStealLeaseTTL
	}
	return c
}

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("simsvc: service is shut down")

// OverloadError rejects a submission that would overflow the bounded
// pending-cell queue. RetryAfter estimates when capacity should free up.
type OverloadError struct {
	Pending    int
	Limit      int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("simsvc: overloaded: %d cells pending (limit %d); retry in ~%s",
		e.Pending, e.Limit, e.RetryAfter.Round(time.Second))
}

// flightEvents sizes the /debug/flight ring: the last flightEvents
// observability events are always retained in memory, whatever Recorder
// is configured.
const flightEvents = 256

// Service schedules sweep jobs over the shared harness worker pool,
// deduplicates identical in-flight runs, and answers repeated cells from
// the content-addressed result cache.
type Service struct {
	cfg    Config
	cache  *Cache
	pool   *harness.Pool
	ctx    context.Context
	cancel context.CancelFunc
	rec    *obs.Recorder
	tracer *trace.Tracer     // nil unless cfg.Trace
	flight *obs.SafeRingSink // /debug/flight ring (always on)
	fab    *fabric.Client    // nil unless cfg.Peers
	steal  *stealState       // nil unless cfg.WorkStealing

	mu       sync.Mutex
	closed   bool
	nextID   int
	jobs     map[string]*Job
	order    []string
	inflight map[string]*flight

	// exec runs every cell this node simulates, demand and stolen alike,
	// and memoises the checkpoints and sampling plans they share.
	exec *harness.Executor
	// wrapPolicy, when non-nil, rewrites the policy execute runs a cell
	// under. Only tests set it, to make a cell panic, freeze or wait
	// from inside its running simulation.
	wrapPolicy func(harness.RunSpec, harness.RunPolicy) harness.RunPolicy

	// Metrics (see /metrics): each is declared once, against reg, by
	// registerMetrics or by the component that owns it (cache,
	// stealState); the executor's work counters are read at scrape time.
	reg          *obs.Registry
	runsExecuted *obs.Counter  // simulations actually run
	runsDeduped  *obs.Counter  // cells that joined an in-flight identical run
	runsSkipped  *obs.Counter  // cells abandoned by cancellation/shutdown
	runNanos     atomic.Uint64 // cumulative wall time of executed runs (exported in seconds)
	jobsTotal    *obs.Counter

	cellsFailed  *obs.Counter // cells that failed
	slowCells    *obs.Counter // executed cells that exceeded the p99 run duration
	cellPanics   *obs.Counter // cells that panicked (recovered)
	cellTimeouts *obs.Counter // cells killed by the wall-clock deadline
	jobsRejected *obs.Counter // submissions refused by backpressure
	jobsEvicted  *obs.Counter // finished jobs dropped from the registry

	runDur *obs.Histogram // per-run wall time
}

// flight is one in-progress simulation with every (job, cell) waiting on
// it; the executing worker delivers the result to all of them. Its
// followers are the flights of equivalent cells (RunSpec.Representative)
// parked on it: each gets the result under its own key once this one
// settles.
type flight struct {
	waiters   []delivery
	followers []follower
}

// follower names the parked flight of a cell whose representative is
// another cell's flight.
type follower struct {
	key string
	k   harness.Key
}

type delivery struct {
	job *Job
	key harness.Key

	// Tracing state (nil with tracing off): the waiter's cell trace, and
	// — for waiters that joined an existing flight rather than executing
	// — the open await-inflight span the deliverer finishes.
	ct    *trace.CellTrace
	await *trace.Span
}

// New starts a service. Its only startup disk work is creating the
// cache directory cfg.CachePath, and New fails if it cannot; results
// already there are read on demand, so a restarted server answers
// repeated sweeps from cache. Results are the only state that outlives a
// process: jobs and their IDs do not, so a sweep a crash interrupted is
// resubmitted, and its persisted cells resolve as cache hits.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	// The flight recorder always runs: every event the service emits
	// lands in a bounded ring served by /debug/flight, with the
	// configured Recorder (whose own class mask still applies) fanned in
	// behind it.
	ring := obs.NewSafeRingSink(flightEvents)
	sinks := []obs.Sink{ring}
	if cfg.Recorder != nil {
		sinks = append(sinks, cfg.Recorder)
	}
	s := &Service{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		rec:      obs.NewRecorder(obs.ClassAll, sinks...),
		flight:   ring,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*flight),
		reg:      obs.NewRegistry(),
	}
	var err error
	if s.cache, err = openCache(cfg.CachePath, s.event); err != nil {
		cancel()
		return nil, err
	}
	s.cache.SetMaxBytes(cfg.CacheMaxBytes)
	if cfg.Trace {
		s.tracer = trace.New()
	}
	s.exec = &harness.Executor{Event: s.event, PlanBuilt: s.planBuilt}
	s.pool = harness.NewPool(ctx, cfg.Workers)
	s.registerMetrics()
	if cfg.WorkStealing {
		s.steal = newStealState(s.reg)
		s.pool.OnIdle = s.steal.signalIdle
	}
	if len(cfg.Peers) > 0 {
		s.fab = fabric.New(fabric.Config{
			Peers:         cfg.Peers,
			Timeout:       cfg.PeerTimeout,
			ProbeInterval: cfg.PeerProbeInterval,
			Event:         s.event,
		})
		s.registerPeerMetrics()
	}
	return s, nil
}

// event emits a ClassFault observability event (nil recorder: one nil
// check, no allocation).
func (s *Service) event(kind, detail string) {
	if s.rec.On(obs.ClassFault) {
		s.rec.Emit(obs.Event{Class: obs.ClassFault, Kind: kind, Detail: detail})
	}
}

// registerMetrics declares the metrics the service itself owns, and the
// executor's; the optional subsystems (stealing, peering) declare their
// own when New constructs them. Values that already live in a
// subcomponent are sampled at scrape time; the run-duration distribution
// is a real histogram (the slow-cell detector reads its p99).
func (s *Service) registerMetrics() {
	r := s.reg
	ctr, gau := r.NewCounter, r.NewGaugeFunc

	s.cache.register(r)
	gau("sdo_queue_depth", "Cells waiting for a worker.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	gau("sdo_inflight_runs", "Cells currently executing.",
		func() float64 { return float64(s.pool.Active()) })
	s.runsExecuted = ctr("sdo_runs_executed_total", "Simulations actually run.")
	s.runsDeduped = ctr("sdo_runs_deduped_total", "Cells coalesced onto an identical in-flight run.")
	s.runsSkipped = ctr("sdo_runs_skipped_total", "Cells abandoned by cancellation or shutdown.")
	r.NewCounterFunc("sdo_run_seconds_total", "Cumulative wall time of executed simulations.",
		func() float64 { return float64(s.runNanos.Load()) / 1e9 })
	s.cellsFailed = ctr("sdo_cells_failed_total", "Cells that failed (panic, deadline or simulation error); each runs once.")
	s.slowCells = ctr("sdo_slow_cells_total", "Executed cells whose wall time exceeded the observed p99 run duration.")
	s.cellPanics = ctr("sdo_cell_panics_total", "Cells that panicked (recovered in isolation).")
	s.cellTimeouts = ctr("sdo_cell_timeouts_total", "Cells killed by the per-cell deadline.")
	s.jobsTotal = ctr("sdo_jobs_total", "Sweep jobs submitted.")
	s.jobsRejected = ctr("sdo_jobs_rejected_total", "Submissions rejected by queue backpressure (HTTP 429).")
	s.jobsEvicted = ctr("sdo_jobs_evicted_total", "Finished jobs evicted from the registry (TTL or count bound).")
	gau("sdo_jobs_tracked", "Jobs currently in the registry.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})

	e := s.exec
	work := func(name, help string, v *atomic.Uint64) {
		r.NewCounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	work("sdo_checkpoints_captured_total", "Functional-warmup checkpoints captured.", &e.CheckpointsCaptured)
	work("sdo_warmup_instrs_simulated_total", "Warmup instructions actually simulated (checkpoint reuse keeps this at one warmup per workload).", &e.WarmupInstrs)
	work("sdo_checkpoint_hits_total", "Cells that restored an existing warmup checkpoint.", &e.CheckpointHits)
	work("sdo_sample_plans_built_total", "Sampling plans built (BBV profile + clustering + checkpoint series).", &e.PlansBuilt)
	work("sdo_sampled_cells_total", "Cells executed in sampled (SimPoint) mode.", &e.SampledCells)
	work("sdo_sampled_detailed_instrs_total", "Detailed instructions executed by sampled cells (vs. max_instrs per cell in detailed mode).", &e.SampledInstrs)
	work("sdo_profiled_instrs_total", "Functional instructions spent on BBV profiling passes.", &e.ProfiledInstrs)
	work("sdo_sample_plan_hits_total", "Sampled cells that reused an existing sampling plan.", &e.PlanHits)

	s.runDur = r.NewHistogram("sdo_run_duration_seconds",
		"Wall time of individual executed simulations.", obs.DefaultLatencyBuckets())
}

// Registry exposes the service's metrics registry (the /metrics
// document), e.g. for embedding additional process-level collectors.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Fabric exposes the service's peer client (nil without Peers): the one
// transport and breaker set the cluster layer sends its requests through.
func (s *Service) Fabric() *fabric.Client { return s.fab }

// Cache exposes the service's result cache (read-mostly: tests and
// metrics).
func (s *Service) Cache() *Cache { return s.cache }

// IdleWorkers is how many pool workers neither run nor have a queued
// cell to pick up — the capacity stealing from cluster peers may use
// without delaying demand cells. Stolen cells run on the pool (RunStolen),
// so they count as busy workers here.
func (s *Service) IdleWorkers() int {
	return s.cfg.Workers - s.pool.Busy()
}

// Health is the /healthz document.
type Health struct {
	// Status is "ok", "degraded" (serving, but impaired — see Reasons)
	// or "draining" (shutdown underway; not serving new work).
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
	// Peers reports per-peer fabric state (breaker, probe verdict,
	// counters) when cache peering is configured.
	Peers []fabric.PeerStatus `json:"peers,omitempty"`
}

// Health reports the service's operational state: "draining" once
// shutdown has begun, "degraded" (reason "cache-degraded") while the cache
// has fallen back to memory-only, otherwise "ok". Peer failures never
// degrade the status — peering degrades to local simulation by design —
// but per-peer state is reported.
func (s *Service) Health() Health {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return Health{Status: "draining"}
	}
	h := Health{Status: "ok", Peers: s.fab.Snapshot()}
	if s.cache.degraded.Load() {
		h.Status, h.Reasons = "degraded", []string{"cache-degraded"}
	}
	return h
}

// retryAfter estimates how long until MaxPendingCells of queue depth
// drains: pending cells divided across the workers at the observed mean
// run time (1s when nothing has run yet), clamped to [1s, 5m].
func (s *Service) retryAfter(pending int) time.Duration {
	avg := time.Second
	if n := s.runsExecuted.Value(); n > 0 {
		avg = time.Duration(s.runNanos.Load() / n)
	}
	d := time.Duration(pending) * avg / time.Duration(s.cfg.Workers)
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return d
}

// Submit validates, registers and enqueues a sweep job. When the pending
// queue is over the configured bound, it returns an *OverloadError
// without registering anything.
func (s *Service) Submit(req harness.Request) (*Job, error) {
	opt, cells, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, errors.New("simsvc: empty sweep")
	}
	jctx, jcancel := context.WithCancel(s.ctx)
	j := &Job{
		opt:      opt,
		ctx:      jctx,
		cancel:   jcancel,
		state:    JobRunning,
		total:    len(cells),
		cells:    make([]cellRecord, 0, len(cells)),
		done:     make(chan struct{}),
		ablation: req.Ablations,
	}
	j.onTerminal = s.jobFinished
	if s.fab != nil {
		j.peers = &peerBatch{cells: cells}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jcancel()
		return nil, ErrClosed
	}
	s.evictJobsLocked()
	if lim := s.cfg.MaxPendingCells; lim > 0 {
		if pending := s.pool.QueueDepth(); pending+len(cells) > lim {
			s.mu.Unlock()
			jcancel()
			s.jobsRejected.Add(1)
			return nil, &OverloadError{Pending: pending, Limit: lim, RetryAfter: s.retryAfter(pending + len(cells))}
		}
	}
	// In a cluster, OwnsID partitions the "sweep-N" sequence: each node
	// skips the numbers it does not own under the rendezvous hash, so
	// nodes allocate disjoint IDs and any node can resolve any ID's owner
	// with the same hash (see internal/cluster).
	for {
		s.nextID++
		j.ID = fmt.Sprintf("sweep-%d", s.nextID)
		if s.cfg.OwnsID == nil || s.cfg.OwnsID(j.ID) {
			break
		}
	}
	j.jt = s.tracer.StartJob(j.ID)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.jobsTotal.Add(1)
	if s.rec.On(obs.ClassTrace) {
		s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: "sweep-submitted",
			Detail: fmt.Sprintf("%s: %d cells", j.ID, len(cells))})
	}

	enqueued := time.Now()
	for _, c := range cells {
		if s.steal != nil {
			if k, err := c.CacheKey(); err == nil {
				s.steal.enqueue(k, c)
			}
		}
		s.pool.Submit(func(ctx context.Context) { s.runCell(ctx, j, c, enqueued) })
	}
	return j, nil
}

// jobFinished observes a job reaching a terminal state and enforces the
// registry bound. It writes nothing to the cache directory: every path
// that adds a result wrote its file before the job could see it.
func (s *Service) jobFinished(j *Job) {
	j.peers.close()
	st := j.Status()
	if s.rec.On(obs.ClassTrace) {
		s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: "sweep-finished",
			Detail: fmt.Sprintf("%s: %s (%d/%d runs, %d cached, %d failed)",
				st.ID, st.State, st.Completed, st.Total, st.Cached, st.Failed)})
	}
	s.mu.Lock()
	s.evictJobsLocked()
	s.mu.Unlock()
}

// evictJobsLocked enforces the registry bounds (caller holds s.mu):
// finished jobs past JobTTL are dropped, then the oldest finished jobs
// until MaxJobs is met. Running jobs are never evicted.
func (s *Service) evictJobsLocked() {
	now := time.Now()
	evict := func(pred func(*Job) bool) {
		kept := s.order[:0]
		for _, id := range s.order {
			j := s.jobs[id]
			if j.Terminal() && pred(j) {
				delete(s.jobs, id)
				s.jobsEvicted.Add(1)
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
	}
	if ttl := s.cfg.JobTTL; ttl > 0 {
		evict(func(j *Job) bool { return now.Sub(j.FinishedAt()) > ttl })
	}
	if max := s.cfg.MaxJobs; max > 0 && len(s.order) > max {
		over := len(s.order) - max
		evict(func(*Job) bool { over--; return over >= 0 })
	}
}

// planBuilt observes each sampling-plan build the executor makes. It runs
// inside the build, so a Recorder sink that blocks on the "plan-built"
// event holds every cell waiting on that plan.
func (s *Service) planBuilt(wl string, sp *harness.SamplePlan) {
	if s.rec.On(obs.ClassSample) {
		s.rec.Emit(obs.Event{Class: obs.ClassSample, Kind: "plan-built",
			Detail: fmt.Sprintf("%s: k=%d/%d intervals, sampled %d/%d instrs, err-est %.3f",
				wl, sp.Plan.K, sp.Plan.NumIntervals,
				sp.Plan.SampledInstrs(), sp.Plan.WindowInstrs, sp.Plan.ErrEstimate)})
	}
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// flightAbandoned reports whether no job waiting on the in-flight run
// keyed by key is still alive — the condition under which a mid-run cell
// is aborted rather than finished.
func (s *Service) flightAbandoned(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.inflight[key]
	return ok && !s.liveLocked(f)
}

// liveLocked reports whether a job still waits on f: on f itself or on
// one of its followers. Caller holds s.mu.
func (s *Service) liveLocked(f *flight) bool {
	for _, w := range f.waiters {
		if !w.job.Terminal() {
			return true
		}
	}
	for _, fw := range f.followers {
		if g, ok := s.inflight[fw.key]; ok && s.liveLocked(g) {
			return true
		}
	}
	return false
}

// settlement is what a finished flight owes each of its waiters.
type settlement struct {
	// res is the cache's copy of the result: every waiter shares it.
	res *core.Result
	// err nil delivers res. A *harness.CellError is a cell failure: the
	// waiting jobs degrade rather than die. Any other error
	// fails the waiting jobs with it (ErrCancelled: the cell was skipped).
	err    error
	status string // terminal status of each waiter's cell trace
	note   string // progress-line suffix: how the result was obtained
	cached bool   // counts toward the jobs' cached_runs
}

// settle retires the finished flight for key — whoever finished it: the
// executor, or a peer or stolen-cell hit — and gives every (job, cell)
// waiting on it exactly one delivery, then settles each follower's flight
// the same way. The result, if any, must already be in the cache, so a
// cell arriving from here on finds either the flight or the entry.
func (s *Service) settle(key string, k harness.Key, o settlement) {
	s.mu.Lock()
	f := s.inflight[key]
	delete(s.inflight, key)
	s.mu.Unlock()

	var (
		ce   *harness.CellError
		fail Failure
		line string
	)
	if errors.As(o.err, &ce) {
		s.cellsFailed.Inc()
		switch ce.Kind {
		case harness.FailPanic:
			s.cellPanics.Inc()
		case harness.FailTimeout:
			s.cellTimeouts.Inc()
		}
		s.event("cell-failed", ce.Error())
		fail = Failure{Cell: k.String(), Kind: string(ce.Kind), Error: ce.Err.Error()}
		line = fmt.Sprintf("%-14s %-11s %-10s FAILED: %s: %v",
			k.Workload, k.Variant, k.Model, ce.Kind, ce.Err)
	}
	for _, w := range f.waiters {
		w.await.Finish()
		att := finishCell(w.ct, o.status)
		switch {
		case o.err == nil:
			w.job.deliver(w.key, o.res, o.note, o.cached, att)
		case ce != nil:
			w.job.cellFail(w.key, fail, line)
		default:
			w.job.fail(o.err)
		}
	}
	for _, fw := range f.followers {
		s.settle(fw.key, fw.k, s.forFollower(fw, o))
	}
}

// forFollower turns a representative's settlement into a follower's: the
// result relabelled with the follower's variant and model and cached under
// its own key, so the follower's file, peer lookups and later hits are the
// ones its own simulation would have made.
func (s *Service) forFollower(fw follower, o settlement) settlement {
	if o.res != nil {
		r := *o.res
		r.Variant, r.Model = fw.k.Variant, fw.k.Model
		o.res = s.cache.Put(fw.key, r)
	}
	return o
}

// flightOrCachedLocked returns key's flight, or else key's cached result,
// or neither. A flight caches its result before it leaves the table, so a
// cell whose cache lookup just missed a flight that then settled finds the
// result here, in memory, instead of running it again; readThrough also
// reads key's file, for a caller that has not looked yet. Caller holds
// s.mu.
func (s *Service) flightOrCachedLocked(key string, readThrough bool) (*flight, *core.Result) {
	if f, ok := s.inflight[key]; ok {
		return f, nil
	}
	e, ok := s.cache.held(key, false)
	if !ok && readThrough {
		e, ok = s.cache.lookup(key, false)
	}
	if ok {
		return nil, e.res
	}
	return nil, nil
}

// runCell resolves one cell on a pool worker: from the cache, an
// identical in-flight run, a stolen-cell lease, a peer, or an equivalent
// cell's run (fly), and executes it only when all of these miss. Execution is
// hardened: a panic is isolated and the configured deadline applies. A
// cell runs once, and a failed one degrades the waiting jobs instead of
// killing them.
func (s *Service) runCell(ctx context.Context, j *Job, spec harness.RunSpec, enqueued time.Time) {
	if s.steal != nil {
		// A worker picked the cell up: it is no longer stealable (on every
		// exit path, including skip below).
		if k, err := spec.CacheKey(); err == nil {
			s.steal.dequeue(k)
		}
	}
	if ctx.Err() != nil || j.ctx.Err() != nil {
		s.runsSkipped.Inc()
		j.skip()
		return
	}
	key, err := spec.CacheKey()
	if err != nil {
		j.fail(err)
		return
	}
	k := spec.Key()
	// ct is nil with tracing off: every span call below degrades to one
	// nil check, and the cell's name is never rendered. The root span
	// starts at enqueue, so its duration is the cell's reported wall clock;
	// queue-wait is recorded retroactively.
	var ct *trace.CellTrace
	if j.jt != nil {
		ct = j.jt.StartCell(k.String(), enqueued)
	}
	ct.Root().ChildAt(trace.PhaseQueue, enqueued).Finish()
	cs := ct.Root().Child(trace.PhaseCache)
	r, hit := s.cache.Get(key)
	cs.Set("hit", strconv.FormatBool(hit))
	cs.Finish()
	if hit {
		j.deliver(k, r, "  [cached]", true, finishCell(ct, "cached"))
		return
	}
	s.mu.Lock()
	f, cached := s.flightOrCachedLocked(key, false)
	switch {
	case f != nil:
		await := ct.Root().Child(trace.PhaseAwait)
		f.waiters = append(f.waiters, delivery{job: j, key: k, ct: ct, await: await})
		s.mu.Unlock()
		s.runsDeduped.Inc()
		return
	case cached != nil:
		s.mu.Unlock()
		s.runsDeduped.Inc() // the flight it missed settled a moment ago
		j.deliver(k, cached, "  [cached]", true, finishCell(ct, "cached"))
		return
	}
	s.inflight[key] = &flight{waiters: []delivery{{job: j, key: k, ct: ct}}}
	s.mu.Unlock()
	s.fly(ct, key, k, spec, j.peers)
}

// fly resolves the flight for key, which the caller registered, through
// the rungs past the local cache: a stolen-cell lease, a peer (the
// batched lookup pb of the job whose cell it is), the flight of an
// equivalent cell, and finally execution. ct is the trace of the cell
// whose worker runs it.
func (s *Service) fly(ct *trace.CellTrace, key string, k harness.Key, spec harness.RunSpec, pb *peerBatch) {
	// Work stealing: if a peer claimed this cell under a still-live
	// lease, wait (bounded by the lease expiry) for its result to land
	// in the cache instead of duplicating the run. An expired lease
	// reclaims the cell — execution continues below exactly as if it
	// was never stolen.
	if s.steal != nil {
		if r, ok := s.stealWait(ct.Root(), key); ok {
			s.settle(key, k, settlement{res: r, status: "stolen", note: "  [stolen]", cached: true})
			return
		}
	}

	// Cache peering: before simulating, take this content-addressed key
	// from the job's one batched peer lookup, waiting for it if it is
	// under way. Any peer failure (down, slow, corrupt) resolves to a
	// miss and the cell simulates locally — the fabric can make a sweep
	// faster, never break it. All waiters on this flight share the hit.
	if r, ok := s.peerHit(ct.Root(), pb, key); ok {
		s.settle(key, k, settlement{res: r, status: "peer", note: "  [peer]", cached: true})
		return
	}

	// Equivalent cells: a cell whose simulation provably equals another
	// cell's (core.Representative) takes that cell's result instead of
	// simulating.
	if rep := spec.Representative(); rep != spec && s.follow(ct, key, k, rep, pb) {
		return
	}

	// The cell runs under a non-cancelling context: shutdown drains
	// in-flight cells (complete-and-persist), and a cancelled job's
	// cells abort via the policy's Abort hook only once no other live job
	// waits on them. The executing waiter's root span rides along so the
	// harness nests its interval spans under this cell's simulate phase.
	res, elapsed, err := s.execute(trace.NewContext(context.Background(), ct.Root()), spec,
		func() bool { return s.flightAbandoned(key) })
	if elapsed > 0 {
		s.noteSlowCell(k, elapsed, ct)
	}
	o := settlement{err: err, status: "done"}
	var ce *harness.CellError
	switch {
	case err == nil:
		// Put writes the cell's file before settle wakes a waiter: the
		// cache directory is all a crash leaves behind, so a resubmitted
		// sweep re-simulates no cell any job has seen.
		o.res = s.cache.Put(key, res)
	case errors.As(err, &ce):
		o.status = "failed"
	case errors.Is(err, harness.ErrCellAbandoned):
		s.runsSkipped.Inc()
		o.status, o.err = "abandoned", ErrCancelled
	default:
		// Infrastructure error (cancellation, unknown workload, bad
		// checkpoint key): fail the waiting jobs outright.
		o.status = "error"
		o.err = fmt.Errorf("simsvc: %v: %w", k, err)
	}
	s.settle(key, k, o)
}

// follow resolves the flight for key from its representative rep: it
// parks the flight on rep's as a follower (the worker is released), takes
// rep's cached result, or starts rep's flight and runs it here. It
// reports false, leaving the flight to run itself, only if rep has no
// key.
func (s *Service) follow(ct *trace.CellTrace, key string, k harness.Key, rep harness.RunSpec, pb *peerBatch) bool {
	rkey, err := rep.CacheKey()
	if err != nil {
		return false
	}
	fw := follower{key: key, k: k}
	s.mu.Lock()
	f, cached := s.flightOrCachedLocked(rkey, true)
	switch {
	case f != nil:
		f.followers = append(f.followers, fw)
		// The worker leaves; this cell's own trace now awaits rep's flight.
		own := s.inflight[key]
		own.waiters[0].await = ct.Root().Child(trace.PhaseAwait)
		s.mu.Unlock()
		s.runsDeduped.Inc()
		return true
	case cached != nil:
		s.mu.Unlock()
		s.runsDeduped.Inc()
		s.settle(key, k, s.forFollower(fw, settlement{res: cached, status: "cached", note: "  [cached]", cached: true}))
		return true
	}
	s.inflight[rkey] = &flight{followers: []follower{fw}}
	s.mu.Unlock()
	s.fly(ct, rkey, rep.Key(), rep, pb)
	return true
}

// finishCell closes a cell trace's root span with a terminal status and
// returns its attribution (nil with tracing off — the delivery path then
// records nothing).
func finishCell(ct *trace.CellTrace, status string) *trace.Attribution {
	if ct == nil {
		return nil
	}
	ct.Root().Set("status", status)
	ct.Finish()
	return ct.Attribution()
}

// slowCellMinSamples is how many executed runs the duration histogram
// must hold before the slow-cell detector trusts its p99.
const slowCellMinSamples = 32

// noteSlowCell emits one structured warning line (stderr JSON, plus a
// ClassTrace event into the flight ring) for a cell whose execution
// exceeded the p99 of the run-duration histogram. With tracing on, the
// line carries the cell's span breakdown.
func (s *Service) noteSlowCell(k harness.Key, elapsed time.Duration, ct *trace.CellTrace) {
	if s.runDur.Count() < slowCellMinSamples {
		return
	}
	p99 := s.runDur.Quantile(0.99)
	if p99 <= 0 || elapsed.Seconds() <= p99 {
		return
	}
	s.slowCells.Add(1)
	breakdown := ct.Attribution().Summary() // snapshot; the root span is still open
	warn := struct {
		Level     string  `json:"level"`
		Msg       string  `json:"msg"`
		Cell      string  `json:"cell"`
		Seconds   float64 `json:"seconds"`
		P99       float64 `json:"p99_seconds"`
		Breakdown string  `json:"breakdown,omitempty"`
	}{"warn", "slow-cell", k.String(), elapsed.Seconds(), p99, breakdown}
	if b, err := json.Marshal(warn); err == nil {
		fmt.Fprintln(os.Stderr, string(b))
	}
	if s.rec.On(obs.ClassTrace) {
		s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: "slow-cell",
			Detail: fmt.Sprintf("%s took %s (p99 %.2fs) %s",
				k.String(), elapsed.Round(time.Millisecond), p99, breakdown)})
	}
}

// execute runs one cell through the executor under the service's
// deadline, accounts the run, and returns the result and how long the
// simulation itself took (0 when none started). The demand path
// (runCell) and the thief path (RunStolen) both execute cells through
// here, so a stolen result is bit-identical to the demand result for the
// same key. abort (may be nil) lets a mid-run demand cell stop once
// nothing waits on it.
func (s *Service) execute(ctx context.Context, spec harness.RunSpec, abort func() bool) (core.Result, time.Duration, error) {
	pol := harness.RunPolicy{CellTimeout: s.cfg.CellTimeout, Abort: abort}
	if s.wrapPolicy != nil {
		pol = s.wrapPolicy(spec, pol)
	}
	r, elapsed, err := s.exec.Run(ctx, spec, pol)
	if elapsed > 0 {
		s.runNanos.Add(uint64(elapsed))
		s.runDur.Observe(elapsed.Seconds())
		s.runsExecuted.Inc()
	}
	return r, elapsed, err
}

// Shutdown stops intake, cancels queued-but-unstarted cells and lets
// in-flight simulations finish (a cell all of whose waiting jobs died is
// aborted); each finished cell writes its own file, so there is nothing
// left to save. The pool is always waited for (nothing leaks); if ctx
// expires during that wait ctx.Err() is reported.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.cancel() // queued cells skip; running cells finish
	s.fab.Close()
	s.pool.Close()
	done := make(chan struct{})
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		<-done
		return ctx.Err()
	}
}
