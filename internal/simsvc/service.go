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

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// Config configures a Service.
type Config struct {
	// Workers bounds concurrent simulations (0: GOMAXPROCS).
	Workers int
	// CachePath persists the result cache across restarts ("" disables
	// persistence; the in-memory cache still works).
	CachePath string
	// CacheMaxEntries bounds the result cache; least-recently-used
	// results are evicted past the bound (0: unbounded).
	CacheMaxEntries int
	// CacheMaxBytes bounds the result cache's total encoded size in
	// bytes; least-recently-used results are evicted past the bound
	// (0: unbounded). Both bounds may be set; eviction satisfies both.
	CacheMaxBytes int64

	// MaxAttempts bounds attempts per cell: transiently-failed cells
	// (panic, timeout, stall) are retried with exponential backoff up to
	// this many total attempts (0: default 3; 1: no retries).
	MaxAttempts int
	// RetryBackoff is the base retry delay, doubling per attempt with
	// deterministic jitter (0: default 200ms).
	RetryBackoff time.Duration
	// CellTimeout is a wall-clock deadline per cell attempt (0: none).
	CellTimeout time.Duration
	// StallTimeout kills a cell attempt whose committed-instruction count
	// stops advancing for this long (0: no stall watchdog).
	StallTimeout time.Duration
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
	// PersistFailureLimit is how many consecutive cache-persist failures
	// switch the cache to memory-only mode (0: default 3).
	PersistFailureLimit int
	// RetryStormThreshold marks health degraded when at least this many
	// retries happen within one minute (0: default 50).
	RetryStormThreshold int
	// Faults injects chaos faults into cell execution and cache I/O
	// (nil in production: zero cost).
	Faults *faults.Injector
	// Recorder, when non-nil, receives ClassFault events (cell failures,
	// retries, quarantine, persistence degradation).
	Recorder *obs.Recorder

	// Trace enables the sweep-lifecycle span model (internal/obs/trace):
	// GET /sweeps/{id}/trace serves a span tree per cell, exports carry a
	// per-cell latency attribution, and slow cells log a span breakdown.
	// Off by default; when off the tracer is nil and every span call in
	// the hot path degrades to a single nil check — results and exports
	// are byte-identical to a build without the subsystem.
	Trace bool
	// TraceMaxJobs bounds retained job traces (0: trace.DefaultMaxJobs).
	TraceMaxJobs int
	// FlightEvents sizes the /debug/flight ring buffer: the last N
	// observability events are always retained in memory, whatever
	// Recorder is configured (0: default 256).
	FlightEvents int

	// JournalPath persists the job journal as JSONL ("" disables): every
	// submission is written ahead of execution and every terminal
	// transition is fsynced, so a crashed service re-admits its
	// non-terminal sweeps on restart under their original IDs, re-running
	// only the cells absent from the persisted result cache (see
	// journal.go / resume.go).
	JournalPath string

	// Peers is the static peer list for failure-aware cache peering
	// (base URLs of other sdoserver nodes). On a local cache miss the
	// service consults peers by rendezvous-hashed key over GET
	// /cache/{key} before simulating; every peer failure degrades to
	// local simulation (see internal/fabric). Empty: peering off.
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
	// cluster peers may claim under a journaled lease via
	// Service.StealCells (see steal.go). Off by default.
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
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 200 * time.Millisecond
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.PersistFailureLimit <= 0 {
		c.PersistFailureLimit = 3
	}
	if c.RetryStormThreshold <= 0 {
		c.RetryStormThreshold = 50
	}
	if c.FlightEvents <= 0 {
		c.FlightEvents = 256
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

// retryWindow is the sliding window for retry-storm detection.
const retryWindow = time.Minute

// persistDebounce batches terminal-job persist triggers: results landing
// within this window of each other are written in one save.
const persistDebounce = 100 * time.Millisecond

// Service schedules sweep jobs over the shared harness worker pool,
// deduplicates identical in-flight runs, and answers repeated cells from
// the content-addressed result cache.
type Service struct {
	cfg     Config
	cache   *Cache
	pool    *harness.Pool
	ctx     context.Context
	cancel  context.CancelFunc
	inj     *faults.Injector
	rec     *obs.Recorder
	tracer  *trace.Tracer     // nil unless cfg.Trace
	flight  *obs.SafeRingSink // /debug/flight ring (always on)
	journal *jobJournal       // nil unless cfg.JournalPath
	fab     *fabric.Client    // nil unless cfg.Peers
	steal   *stealState       // nil unless cfg.WorkStealing

	mu       sync.Mutex
	closed   bool
	nextID   int
	jobs     map[string]*Job
	order    []string
	inflight map[string]*flight

	// The artifact tiers (see artifacts.go), both instances of the one
	// in-memory memo. ckpts: one functional-warmup checkpoint per
	// (workload fingerprint, warmup budget), restored by every
	// functional-mode cell that shares it. plans: one BBV profile +
	// clustering + checkpoint series per (workload fingerprint, window,
	// sampling config), executed by every sampled-mode cell that shares it
	// (see RunSpec.PlanKey) — the expensive part of sampled mode, one
	// functional profiling pass plus k-means, is thereby paid once per
	// workload per sweep shape. Each keeps its artifactTierMax most
	// recently resolved keys.
	ckpts *artifactTier[*arch.Checkpoint]
	plans *artifactTier[*harness.SamplePlan]

	// Write-behind cache persistence: schedulePersist debounces a
	// background save after each terminal job; repeated failures flip
	// the cache to memory-only (cacheDegraded).
	persistMu      sync.Mutex
	persistPending bool
	persistStopped bool
	bg             sync.WaitGroup

	// Retry-storm detection: timestamps of recent retries.
	retryMu    sync.Mutex
	retryTimes []time.Time

	// Metrics (see /metrics): each is declared once, against reg, by
	// registerMetrics or by the component that owns it (cache, journal,
	// artifact tiers, stealState).
	reg          *obs.Registry
	runsExecuted *obs.Counter  // simulations actually run
	runsDeduped  *obs.Counter  // cells that joined an in-flight identical run
	runsSkipped  *obs.Counter  // cells abandoned by cancellation/shutdown
	runNanos     atomic.Uint64 // cumulative wall time of executed runs (exported in seconds)
	jobsTotal    *obs.Counter

	retriesTotal *obs.Counter // cell attempts beyond the first
	cellsFailed  *obs.Counter // cells that failed permanently
	slowCells    *obs.Counter // executed cells that exceeded the p99 run duration
	cellPanics   *obs.Counter // attempts that panicked (recovered)
	cellTimeouts *obs.Counter // attempts killed by the wall-clock deadline
	cellStalls   *obs.Counter // attempts killed by the stall watchdog
	jobsRejected *obs.Counter // submissions refused by backpressure
	jobsEvicted  *obs.Counter // finished jobs dropped from the registry

	persistFailures   *obs.Counter  // cache persist failures (total)
	persistFailStreak atomic.Uint64 // consecutive persist failures
	cacheDegraded     atomic.Bool   // persistence disabled (memory-only)
	cacheLoadFailed   atomic.Bool   // startup cache load failed (started empty)

	// Resume accounting (counters nil unless cfg.JournalPath: only
	// journal-resumed jobs touch them).
	resumedJobs   *obs.Counter // jobs re-admitted from the journal on startup
	resumeSkipped *obs.Counter // resumed cells answered by the persisted cache
	resumeReruns  *obs.Counter // resumed cells that had to re-simulate
	resuming      atomic.Int64 // resumed jobs not yet terminal (healthz: degraded)

	ckptsCaptured   *obs.Counter // warmup checkpoints captured (standalone or in a plan)
	warmupSimulated *obs.Counter // warmup instructions actually simulated
	plansBuilt      *obs.Counter // sample plans built (profile + cluster + checkpoints)
	sampledCells    *obs.Counter // cells executed in sampled mode
	sampledInstrs   *obs.Counter // detailed instructions executed by sampled cells
	profiledInstrs  *obs.Counter // functional instructions spent profiling BBVs

	runDur   *obs.Histogram // per-run wall time
	queueLat *obs.Histogram // submit-to-start latency per cell
	planDur  *obs.Histogram // sample-plan build wall time
	peerDur  *obs.Histogram // peer-lookup wall time (nil unless peering)
}

// flight is one in-progress simulation with every (job, cell) waiting on
// it; the executing worker delivers the result to all of them.
type flight struct {
	waiters []delivery
}

type delivery struct {
	job *Job
	idx int // cell index in the job's enumeration order
	key harness.Key

	// Tracing state (nil with tracing off): the waiter's cell trace, and
	// — for waiters that joined an existing flight rather than executing
	// — the open await-inflight span the deliverer finishes.
	ct    *trace.CellTrace
	await *trace.Span
}

// New starts a service. The persisted cache at cfg.CachePath, if any, is
// loaded so a restarted server answers repeated sweeps from cache; an
// unreadable cache never prevents startup — the service starts with an
// empty cache and reports degraded health until the next successful
// persist.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	loadFailed := false
	cache := NewCache()
	if cfg.CachePath != "" {
		if loaded, err := loadCache(cfg.CachePath, cfg.Faults); err == nil {
			cache = loaded
		} else {
			loadFailed = true
		}
	}
	cache.SetFaults(cfg.Faults)
	cache.SetMaxEntries(cfg.CacheMaxEntries)
	cache.SetMaxBytes(cfg.CacheMaxBytes)
	ctx, cancel := context.WithCancel(context.Background())
	// The flight recorder always runs: every event the service emits
	// lands in a bounded ring served by /debug/flight, with the
	// configured Recorder (whose own class mask still applies) fanned in
	// behind it.
	ring := obs.NewSafeRingSink(cfg.FlightEvents)
	sinks := []obs.Sink{ring}
	if cfg.Recorder != nil {
		sinks = append(sinks, cfg.Recorder)
	}
	s := &Service{
		cfg:      cfg,
		cache:    cache,
		ctx:      ctx,
		cancel:   cancel,
		inj:      cfg.Faults,
		rec:      obs.NewRecorder(obs.ClassAll, sinks...),
		flight:   ring,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*flight),
		reg:      obs.NewRegistry(),
	}
	if cfg.Trace {
		s.tracer = trace.New(cfg.TraceMaxJobs)
	}
	if loadFailed {
		s.cacheLoadFailed.Store(true)
		s.event("cache-load-failed", cfg.CachePath)
	}
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
			Faults:        cfg.Faults,
			Event:         s.event,
		})
		s.registerPeerMetrics()
	}
	// Durable resumable jobs: replay the write-ahead job journal and
	// re-admit every sweep that was submitted but never reached a
	// terminal state, under its original ID. The content-addressed
	// result cache answers the cells the previous life already
	// completed; only the missing ones re-simulate.
	var resumable []journalJob
	if cfg.JournalPath != "" {
		var maxN int
		s.journal, resumable, maxN = openJournal(cfg.JournalPath, cfg.Faults)
		s.nextID = maxN
		if s.journal.isDegraded() {
			s.event("journal-degraded", cfg.JournalPath)
		}
		s.journal.register(s.reg)
		s.registerResumeMetrics()
	}
	s.resumeJobs(resumable)
	return s, nil
}

// event emits a ClassFault observability event (nil recorder: one nil
// check, no allocation).
func (s *Service) event(kind, detail string) {
	if s.rec.On(obs.ClassFault) {
		s.rec.Emit(obs.Event{Class: obs.ClassFault, Kind: kind, Detail: detail})
	}
}

// registerMetrics declares the metrics the service itself owns and
// builds the two artifact tiers around theirs; the optional subsystems
// (stealing, peering, journal) declare their own when New
// constructs them. Values that already live in a subcomponent are
// sampled at scrape time; the latency distributions are real histograms.
func (s *Service) registerMetrics() {
	r := s.reg
	ctr, gau := r.NewCounter, r.NewGaugeFunc

	s.cache.register(r)
	s.persistFailures = ctr("sdo_cache_persist_failures_total", "Cache persist attempts that failed.")
	gau("sdo_cache_persistence_enabled", "1 while the cache persists to disk, 0 when memory-only.",
		func() float64 {
			if s.cfg.CachePath == "" || s.cacheDegraded.Load() {
				return 0
			}
			return 1
		})
	gau("sdo_queue_depth", "Cells waiting for a worker.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	gau("sdo_inflight_runs", "Cells currently executing.",
		func() float64 { return float64(s.pool.Active()) })
	gau("sdo_workers", "Worker-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	s.runsExecuted = ctr("sdo_runs_executed_total", "Simulations actually run.")
	s.runsDeduped = ctr("sdo_runs_deduped_total", "Cells coalesced onto an identical in-flight run.")
	s.runsSkipped = ctr("sdo_runs_skipped_total", "Cells abandoned by cancellation or shutdown.")
	r.NewCounterFunc("sdo_run_seconds_total", "Cumulative wall time of executed simulations.",
		func() float64 { return float64(s.runNanos.Load()) / 1e9 })
	s.retriesTotal = ctr("sdo_runs_retried_total", "Cell attempts beyond the first (transient-failure retries).")
	s.cellsFailed = ctr("sdo_cells_failed_total", "Cells that failed permanently (retries exhausted or non-retryable).")
	s.slowCells = ctr("sdo_slow_cells_total", "Executed cells whose wall time exceeded the observed p99 run duration.")
	s.cellPanics = ctr("sdo_cell_panics_total", "Cell attempts that panicked (recovered in isolation).")
	s.cellTimeouts = ctr("sdo_cell_timeouts_total", "Cell attempts killed by the per-cell deadline.")
	s.cellStalls = ctr("sdo_cell_stalls_total", "Cell attempts killed by the progress-based stall watchdog.")
	s.jobsTotal = ctr("sdo_jobs_total", "Sweep jobs submitted.")
	s.jobsRejected = ctr("sdo_jobs_rejected_total", "Submissions rejected by queue backpressure (HTTP 429).")
	s.jobsEvicted = ctr("sdo_jobs_evicted_total", "Finished jobs evicted from the registry (TTL or count bound).")
	gau("sdo_jobs_tracked", "Jobs currently in the registry.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	r.NewCounterFunc("sdo_faults_injected_total", "Chaos faults injected (0 unless fault injection is enabled).",
		func() float64 { return float64(s.inj.Stats().Total()) })

	s.ckptsCaptured = ctr("sdo_checkpoints_captured_total", "Functional-warmup checkpoints captured.")
	s.warmupSimulated = ctr("sdo_warmup_instrs_simulated_total", "Warmup instructions actually simulated (checkpoint reuse keeps this at one warmup per workload).")
	s.ckpts = newArtifactTier[*arch.Checkpoint](s, "checkpoint",
		ctr("sdo_checkpoint_hits_total", "Cells that restored an existing warmup checkpoint."))
	s.plansBuilt = ctr("sdo_sample_plans_built_total", "Sampling plans built (BBV profile + clustering + checkpoint series).")
	s.sampledCells = ctr("sdo_sampled_cells_total", "Cells executed in sampled (SimPoint) mode.")
	s.sampledInstrs = ctr("sdo_sampled_detailed_instrs_total", "Detailed instructions executed by sampled cells (vs. max_instrs per cell in detailed mode).")
	s.profiledInstrs = ctr("sdo_profiled_instrs_total", "Functional instructions spent on BBV profiling passes.")
	s.plans = newArtifactTier[*harness.SamplePlan](s, "plan",
		ctr("sdo_sample_plan_hits_total", "Sampled cells that reused an existing sampling plan."))

	s.runDur = r.NewHistogram("sdo_run_duration_seconds",
		"Wall time of individual executed simulations.", obs.DefaultLatencyBuckets())
	s.queueLat = r.NewHistogram("sdo_queue_latency_seconds",
		"Submit-to-start latency of scheduled cells.", obs.DefaultLatencyBuckets())
	s.planDur = r.NewHistogram("sdo_sample_plan_seconds",
		"Wall time of sampling-plan builds (profile + cluster + checkpoints).", obs.DefaultLatencyBuckets())
	if s.tracer != nil {
		gau("sdo_trace_jobs", "Job traces currently retained.",
			func() float64 { return float64(s.tracer.Jobs()) })
	}
	obs.RegisterProcessMetrics(r)
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
	// ResumingJobs counts journal-resumed jobs that have not yet reached
	// a terminal state; the status is degraded while any remain, so
	// load balancers and scripts can tell a replaying node from a warm
	// one.
	ResumingJobs int `json:"resuming_jobs,omitempty"`
	// Peers reports per-peer fabric state (breaker, probe verdict,
	// counters) when cache peering is configured.
	Peers []fabric.PeerStatus `json:"peers,omitempty"`
}

// Health reports the service's operational state: "draining" once
// shutdown has begun, "degraded" while impaired (cache fell back to
// memory-only, startup cache load failed, the job journal degraded, a
// post-restart resume replay is still running, or a retry storm is
// underway), otherwise "ok". Peer failures never degrade the status —
// peering degrades to local simulation by design — but per-peer state is
// reported.
func (s *Service) Health() Health {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return Health{Status: "draining"}
	}
	h := Health{
		ResumingJobs: int(s.resuming.Load()),
		Peers:        s.fab.Snapshot(),
	}
	if s.cacheDegraded.Load() {
		h.Reasons = append(h.Reasons, "cache-degraded")
	}
	if s.cacheLoadFailed.Load() {
		h.Reasons = append(h.Reasons, "cache-load-failed")
	}
	if s.journal.isDegraded() {
		h.Reasons = append(h.Reasons, "journal-degraded")
	}
	if h.ResumingJobs > 0 {
		h.Reasons = append(h.Reasons, "resuming")
	}
	if s.retryStorm() {
		h.Reasons = append(h.Reasons, "retry-storm")
	}
	h.Status = "ok"
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
	}
	return h
}

// noteRetry records a retry timestamp for storm detection.
func (s *Service) noteRetry() {
	now := time.Now()
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	cut := 0
	for cut < len(s.retryTimes) && now.Sub(s.retryTimes[cut]) > retryWindow {
		cut++
	}
	s.retryTimes = append(s.retryTimes[cut:], now)
}

// retryStorm reports whether retries within the window exceed the
// configured threshold.
func (s *Service) retryStorm() bool {
	now := time.Now()
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	n := 0
	for _, t := range s.retryTimes {
		if now.Sub(t) <= retryWindow {
			n++
		}
	}
	return n >= s.cfg.RetryStormThreshold
}

// SweepRequest selects a sweep. Empty lists mean "all"; a zero MaxInstrs
// means the default budget; a nil WarmupInstrs means the default warmup
// (a pointer so an explicit 0 — no warmup — is expressible, mirroring
// cmd/experiments -warmup).
type SweepRequest struct {
	Workloads    []string `json:"workloads,omitempty"`
	Variants     []string `json:"variants,omitempty"`
	Models       []string `json:"models,omitempty"`
	MaxInstrs    uint64   `json:"max_instrs,omitempty"`
	WarmupInstrs *uint64  `json:"warmup_instrs,omitempty"`
	// IntervalCycles samples an interval statistics point every N cycles
	// of each run's measurement window into the export (0: off).
	IntervalCycles uint64 `json:"interval_cycles,omitempty"`
	// WarmupMode is "detailed" (default) or "functional". Functional-mode
	// cells restore a per-(workload, warmup) checkpoint from the service's
	// checkpoint tier instead of re-simulating warmup.
	WarmupMode string `json:"warmup_mode,omitempty"`
	// SimMode is "detailed" (default: cycle-accurate whole window) or
	// "sampled" (SimPoint-style: BBV-cluster the window, run only the
	// representative interval of each phase, reconstruct whole-window
	// stats from the weighted per-instruction rates). Sampled jobs share
	// one sampling plan per workload via the service's plan tier and are
	// cached under sampling-aware keys, distinct from detailed results.
	SimMode string `json:"sim_mode,omitempty"`
	// SampleIntervalInstrs, SampleMaxK and SampleSeed are the sampled-mode
	// parameters (0 means the simpoint package defaults: 5000 / 8 / 1).
	SampleIntervalInstrs uint64 `json:"sample_interval_instrs,omitempty"`
	SampleMaxK           int    `json:"sample_max_k,omitempty"`
	SampleSeed           uint64 `json:"sample_seed,omitempty"`
	// Ablations turns the job into a design-space study: per model and
	// workload it runs the Unsafe baseline plus the harness's ablation
	// rows on Hybrid (Variants is ignored), and the export endpoint serves
	// the aggregated ablation tables.
	Ablations bool `json:"ablations,omitempty"`
}

// parseModel maps a request string to an attack model.
func parseModel(name string) (pipeline.AttackModel, error) {
	for _, m := range []pipeline.AttackModel{pipeline.Spectre, pipeline.Futuristic} {
		if name == m.String() || name == "spectre" && m == pipeline.Spectre ||
			name == "futuristic" && m == pipeline.Futuristic {
			return m, nil
		}
	}
	return 0, fmt.Errorf("simsvc: unknown attack model %q", name)
}

// resolve turns a request into normalized harness options (the same
// resolution the CLI performs) plus the deduplicated cell list.
func (s *Service) resolve(req SweepRequest) (harness.Options, []RunSpec, error) {
	opt := harness.DefaultOptions()
	if req.MaxInstrs != 0 {
		opt.MaxInstrs = req.MaxInstrs
	}
	if req.WarmupInstrs != nil {
		opt.WarmupInstrs = *req.WarmupInstrs
	}
	opt.IntervalCycles = req.IntervalCycles
	wm, err := core.ParseWarmupMode(req.WarmupMode)
	if err != nil {
		return opt, nil, err
	}
	opt.WarmupMode = wm
	sm, err := harness.ParseSimMode(req.SimMode)
	if err != nil {
		return opt, nil, err
	}
	opt.SimMode = sm
	if sm == harness.SimSampled {
		if req.Ablations {
			return opt, nil, errors.New(`simsvc: ablation studies run detailed simulation; use sim_mode "detailed"`)
		}
		opt.Sample = simpoint.Config{
			IntervalInstrs: req.SampleIntervalInstrs,
			MaxK:           req.SampleMaxK,
			Seed:           req.SampleSeed,
		}
	}
	if len(req.Workloads) > 0 {
		var wls []workload.Workload
		for _, name := range req.Workloads {
			w, err := workload.ByName(name)
			if err != nil {
				return opt, nil, err
			}
			wls = append(wls, w)
		}
		opt.Workloads = wls
	}
	if len(req.Variants) > 0 {
		var vs []core.Variant
		for _, name := range req.Variants {
			v, err := core.ParseVariant(name)
			if err != nil {
				return opt, nil, err
			}
			vs = append(vs, v)
		}
		opt.Variants = vs
	}
	if len(req.Models) > 0 {
		var ms []pipeline.AttackModel
		for _, name := range req.Models {
			m, err := parseModel(name)
			if err != nil {
				return opt, nil, err
			}
			ms = append(ms, m)
		}
		opt.Models = ms
	}
	opt = opt.Normalized()
	if req.Ablations {
		return opt, ablationCells(opt), nil
	}
	seen := make(map[harness.Key]bool)
	var cells []RunSpec
	for _, k := range opt.Cells() {
		if seen[k] {
			continue
		}
		seen[k] = true
		c := RunSpec{
			Workload:       k.Workload,
			Variant:        k.Variant,
			Model:          k.Model,
			WarmupInstrs:   opt.WarmupInstrs,
			MaxInstrs:      opt.MaxInstrs,
			IntervalCycles: opt.IntervalCycles,
			WarmupMode:     opt.WarmupMode,
			SimMode:        opt.SimMode,
		}
		if opt.SimMode == harness.SimSampled {
			// Unset sampling fields resolve through the per-workload tuning
			// table (request parameters always win); stamping the resolved
			// values into the spec makes the cache key explicit about what
			// actually ran.
			cfg := harness.TunedSampleConfig(k.Workload, opt.Sample)
			c.SampleInterval = cfg.IntervalInstrs
			c.SampleMaxK = cfg.MaxK
			c.SampleSeed = cfg.Seed
		}
		cells = append(cells, c)
	}
	return opt, cells, nil
}

// ablationCells enumerates a design-space-study job: model-major, then
// workload, then the Unsafe baseline followed by the harness's ablation
// rows on Hybrid. Job.Ablations relies on exactly this order.
func ablationCells(opt harness.Options) []RunSpec {
	rows := harness.AblationRows()
	var cells []RunSpec
	for _, m := range opt.Models {
		for _, wl := range opt.Workloads {
			base := RunSpec{
				Workload:     wl.Name,
				Variant:      core.Unsafe,
				Model:        m,
				WarmupInstrs: opt.WarmupInstrs,
				MaxInstrs:    opt.MaxInstrs,
				WarmupMode:   opt.WarmupMode,
			}
			cells = append(cells, base)
			for _, row := range rows {
				c := base
				c.Variant = core.Hybrid
				c.Ablate = row.Ablate
				cells = append(cells, c)
			}
		}
	}
	return cells
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
func (s *Service) Submit(req SweepRequest) (*Job, error) {
	return s.submit(req, submitOpts{})
}

// submitOpts distinguishes a fresh submission from a journal-resumed
// re-admission.
type submitOpts struct {
	// id reuses a fixed job ID ("" allocates the next one) — resumed
	// jobs keep the ID sdoctl already holds.
	id string
	// resumed re-admissions bypass queue backpressure (the work was
	// already admitted once) and skip the write-ahead journal append
	// (their submit record already survives in the journal).
	resumed bool
}

// submit is the shared admission path for fresh and resumed sweeps.
func (s *Service) submit(req SweepRequest, so submitOpts) (*Job, error) {
	opt, cells, err := s.resolve(req)
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
		runs:     make(map[harness.Key]core.Result, len(cells)),
		done:     make(chan struct{}),
		ablation: req.Ablations,
		resumed:  so.resumed,
	}
	if j.ablation {
		j.cellRes = make([]core.Result, len(cells))
	}
	j.onTerminal = s.jobFinished

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jcancel()
		return nil, ErrClosed
	}
	s.evictJobsLocked()
	if lim := s.cfg.MaxPendingCells; lim > 0 && !so.resumed {
		if pending := s.pool.QueueDepth(); pending+len(cells) > lim {
			s.mu.Unlock()
			jcancel()
			s.jobsRejected.Add(1)
			return nil, &OverloadError{Pending: pending, Limit: lim, RetryAfter: s.retryAfter(pending + len(cells))}
		}
	}
	if so.id != "" {
		if _, exists := s.jobs[so.id]; exists {
			s.mu.Unlock()
			jcancel()
			return nil, fmt.Errorf("simsvc: job %s already registered", so.id)
		}
		j.ID = so.id
	} else {
		// In a cluster, OwnsID partitions the "sweep-N" sequence: each
		// node skips the numbers it does not own under the rendezvous
		// hash, so nodes allocate disjoint IDs and any node can resolve
		// any ID's owner with the same hash (see internal/cluster).
		for {
			s.nextID++
			j.ID = fmt.Sprintf("sweep-%d", s.nextID)
			if s.cfg.OwnsID == nil || s.cfg.OwnsID(j.ID) {
				break
			}
		}
	}
	j.jt = s.tracer.StartJob(j.ID)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.jobsTotal.Add(1)
	if so.resumed {
		s.resumedJobs.Add(1)
		s.resuming.Add(1)
	} else if s.journal != nil {
		// Write-ahead: the admission record is durable before any cell
		// is enqueued, so a crash from here on leaves a resumable job,
		// never a lost one. An append failure degrades the journal
		// (health: degraded) but keeps serving — availability over
		// durability.
		if raw, err := json.Marshal(req); err == nil {
			if !s.journal.submit(j.ID, raw) {
				s.event("journal-append-failed", j.ID)
			}
		}
	}
	if s.rec.On(obs.ClassTrace) {
		kind := "sweep-submitted"
		if so.resumed {
			kind = "sweep-resumed"
		}
		s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: kind,
			Detail: fmt.Sprintf("%s: %d cells", j.ID, len(cells))})
	}

	enqueued := time.Now()
	for i, c := range cells {
		i, c := i, c
		if s.steal != nil {
			if k, err := c.CacheKey(); err == nil {
				s.steal.enqueue(k, c)
			}
		}
		s.pool.Submit(func(ctx context.Context) { s.runCell(ctx, j, i, c, enqueued) })
	}
	return j, nil
}

// jobFinished observes a job reaching a terminal state: the result cache
// is persisted write-behind and the registry bound is enforced.
func (s *Service) jobFinished(j *Job) {
	st := j.Status()
	if s.rec.On(obs.ClassTrace) {
		s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: "sweep-finished",
			Detail: fmt.Sprintf("%s: %s (%d/%d runs, %d cached, %d failed)",
				st.ID, st.State, st.Completed, st.Total, st.Cached, st.Failed)})
	}
	// The terminal transition is fsynced before anything can observe the
	// job as finished (Job.finish closes Done only after this callback
	// returns): a crash after a client saw "done" must not resurrect the
	// job on restart.
	if !s.journal.terminal(st.ID, st.State) && s.journal != nil && !s.journal.isDegraded() {
		s.event("journal-append-failed", st.ID)
	}
	if j.resumed {
		s.resuming.Add(-1)
		s.resumeSkipped.Add(uint64(st.ResumeSkipped))
		s.resumeReruns.Add(uint64(st.ResumeRerun))
		s.event("resume-complete", fmt.Sprintf("%s: %s (%d cells skipped via cache, %d re-run)",
			st.ID, st.State, st.ResumeSkipped, st.ResumeRerun))
	}
	s.mu.Lock()
	s.evictJobsLocked()
	s.mu.Unlock()
	s.schedulePersist()
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

// checkpoint resolves the warmup checkpoint for key through the
// checkpoint tier (artifacts.go). A failed or panicking capture is
// isolated: this cell (and any that were blocked on the flight) gets nil
// and falls back to in-place warmup.
func (s *Service) checkpoint(key string, wl workload.Workload, warmup uint64) *arch.Checkpoint {
	ck, _ := s.ckpts.resolve(key, func() (*arch.Checkpoint, error) {
		ck := harness.CaptureCheckpoint(wl, warmup)
		s.ckptsCaptured.Inc()
		s.warmupSimulated.Add(ck.Arch.Instrs)
		return ck, nil
	})
	return ck
}

// samplePlan resolves the sampling plan for key through the plan tier
// (artifacts.go). A failed or panicking build fails this cell and any
// blocked on the flight.
func (s *Service) samplePlan(key string, wl workload.Workload, spec RunSpec) (*harness.SamplePlan, error) {
	cfg := simpoint.Config{IntervalInstrs: spec.SampleInterval, MaxK: spec.SampleMaxK, Seed: spec.SampleSeed}
	return s.plans.resolve(key, func() (*harness.SamplePlan, error) {
		start := time.Now()
		sp, err := harness.BuildSamplePlan(wl, spec.WarmupInstrs, spec.MaxInstrs, cfg)
		if err != nil {
			return nil, err
		}
		s.planDur.Observe(time.Since(start).Seconds())
		s.plansBuilt.Inc()
		s.profiledInstrs.Add(sp.Plan.ProfiledInstrs)
		n := len(sp.Checkpoints)
		s.ckptsCaptured.Add(uint64(n))
		// One continuous pass warms to the last boundary.
		s.warmupSimulated.Add(sp.Checkpoints[n-1].Arch.Instrs)
		if s.rec.On(obs.ClassSample) {
			s.rec.Emit(obs.Event{Class: obs.ClassSample, Kind: "plan-built",
				Detail: fmt.Sprintf("%s: k=%d/%d intervals, sampled %d/%d instrs, err-est %.3f",
					spec.Workload, sp.Plan.K, sp.Plan.NumIntervals,
					sp.Plan.SampledInstrs(), sp.Plan.WindowInstrs, sp.Plan.ErrEstimate)})
		}
		return sp, nil
	})
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
	if !ok {
		return false
	}
	for _, w := range f.waiters {
		if !w.job.Terminal() {
			return false
		}
	}
	return true
}

// cellEvent counts per-attempt outcomes from the harness (metrics +
// observability).
func (s *Service) cellEvent(ev harness.CellEvent) {
	switch ev.Kind {
	case "retry":
		s.retriesTotal.Add(1)
		s.noteRetry()
	case "panic":
		s.cellPanics.Add(1)
	case "timeout":
		s.cellTimeouts.Add(1)
	case "stall":
		s.cellStalls.Add(1)
	}
	if s.rec.On(obs.ClassFault) {
		s.rec.Emit(obs.Event{Class: obs.ClassFault, Kind: "cell-" + ev.Kind,
			Detail: fmt.Sprintf("%s/%v/%v attempt %d: %v",
				ev.Key.Workload, ev.Key.Variant, ev.Key.Model, ev.Attempt, ev.Err)})
	}
}

// settlement is what a finished flight owes each of its waiters.
type settlement struct {
	res core.Result
	// err nil delivers res. A *harness.CellError is a permanent cell
	// failure: the waiting jobs degrade rather than die. Any other error
	// fails the waiting jobs with it (ErrCancelled: the cell was skipped).
	err     error
	status  string // terminal status of each waiter's cell trace
	note    string // progress-line suffix: how the result was obtained
	cached  bool   // counts toward the jobs' cached_runs
	retries int
}

// settle retires the finished flight for key — whoever finished it: the
// executor, or a peer or stolen-cell hit — and gives every (job, cell)
// waiting on it exactly one delivery. The result, if any, must already be
// in the cache, so a cell arriving from here on finds either the flight
// or the entry.
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
	switch {
	case o.err == nil:
		line = harness.FormatProgress(k, o.res) + o.note
	case errors.As(o.err, &ce):
		s.cellsFailed.Inc()
		s.event("cell-failed", ce.Error())
		fail = Failure{Cell: cellName(k), Kind: string(ce.Kind), Attempts: ce.Attempts, Error: ce.Err.Error()}
		line = fmt.Sprintf("%-14s %-11s %-10s FAILED: %s after %d attempt(s): %v",
			k.Workload, k.Variant, k.Model, ce.Kind, ce.Attempts, ce.Err)
	}
	for _, w := range f.waiters {
		w.await.Finish()
		att := finishCell(w.ct, o.status)
		switch {
		case o.err == nil:
			w.job.deliver(w.idx, w.key, o.res, line, o.cached, o.retries, att)
		case ce != nil:
			w.job.cellFail(w.idx, w.key, fail, line, o.retries)
		default:
			w.job.fail(o.err)
		}
	}
}

// runCell executes (or resolves from cache / an identical in-flight run)
// one cell on a pool worker. idx is the cell's index in its job's
// enumeration order. Execution is hardened: panics are isolated, the
// configured deadline/stall watchdog applies, and transient failures
// retry with backoff; a permanent failure degrades the waiting jobs
// instead of killing them.
func (s *Service) runCell(ctx context.Context, j *Job, idx int, spec RunSpec, enqueued time.Time) {
	s.queueLat.Observe(time.Since(enqueued).Seconds())
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
	// nil check. The root span starts at enqueue, so its duration is the
	// cell's reported wall clock; queue-wait is recorded retroactively.
	ct := j.jt.StartCell(cellName(k), enqueued)
	if j.resumed {
		ct.Root().Set("resumed", "true")
	}
	ct.Root().ChildAt(trace.PhaseQueue, enqueued).Finish()
	cs := ct.Root().Child(trace.PhaseCache)
	r, hit := s.cache.Get(key)
	cs.Set("hit", strconv.FormatBool(hit))
	cs.Finish()
	if hit {
		j.deliver(idx, k, r, harness.FormatProgress(k, r)+"  [cached]", true, 0, finishCell(ct, "cached"))
		return
	}
	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		await := ct.Root().Child(trace.PhaseAwait)
		f.waiters = append(f.waiters, delivery{job: j, idx: idx, key: k, ct: ct, await: await})
		s.mu.Unlock()
		s.runsDeduped.Inc()
		return
	}
	s.inflight[key] = &flight{waiters: []delivery{{job: j, idx: idx, key: k, ct: ct}}}
	s.mu.Unlock()

	// Work stealing: if a peer claimed this cell under a still-live
	// lease, wait (bounded by the lease expiry) for its result to land
	// in the cache instead of duplicating the run. An expired lease
	// reclaims the cell — execution continues below exactly as if it
	// was never stolen.
	if s.steal != nil {
		if r, thief, ok := s.stealWait(ct.Root(), key); ok {
			s.settle(key, k, settlement{res: r, status: "stolen", note: "  [stolen]", cached: true})
			if s.rec.On(obs.ClassTrace) {
				s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: "steal-hit",
					Detail: fmt.Sprintf("%s from thief %s", cellName(k), thief)})
			}
			return
		}
	}

	// Cache peering: before simulating, ask the fabric whether a peer
	// already holds this content-addressed key. Any peer failure (down,
	// slow, corrupt) resolves to a miss and the cell simulates locally —
	// the fabric can make a sweep faster, never break it. All waiters on
	// this flight share the one lookup.
	if r, peerURL, ok := s.peerLookup(ct.Root(), key); ok {
		s.cache.Put(key, r)
		s.schedulePersist()
		s.settle(key, k, settlement{res: r, status: "peer", note: "  [peer]", cached: true})
		if s.rec.On(obs.ClassTrace) {
			s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: "peer-hit",
				Detail: fmt.Sprintf("%s from %s", cellName(k), peerURL)})
		}
		return
	}

	// The cell runs under a non-cancelling context: shutdown drains
	// in-flight cells (complete-and-persist), and a cancelled job's
	// cells abort via the policy's Abort hook only once no other live job
	// waits on them. The executing waiter's root span rides along so the
	// harness nests its attempt/interval spans under this cell's simulate
	// phase.
	r, retries, elapsed, err := s.execute(trace.NewContext(context.Background(), ct.Root()), spec,
		func() bool { return s.flightAbandoned(key) })
	if elapsed > 0 {
		s.noteSlowCell(k, elapsed, ct)
	}
	o := settlement{res: r, err: err, status: "done", retries: retries}
	var ce *harness.CellError
	switch {
	case err == nil:
		s.cache.Put(key, r)
		if s.journal != nil {
			// With resumable jobs on, each completed cell schedules a
			// (debounced) cache persist: the persisted cache is what a
			// restarted service re-derives surviving cells from, so a
			// crash loses at most the debounce window of results, not
			// the whole in-flight sweep.
			s.schedulePersist()
		}
	case errors.As(err, &ce):
		o.status = "failed"
	case errors.Is(err, harness.ErrCellAbandoned):
		s.runsSkipped.Inc()
		o.status, o.err = "abandoned", ErrCancelled
	default:
		// Infrastructure error (cancellation, unknown workload, bad
		// checkpoint key): fail the waiting jobs outright.
		o.status = "error"
		o.err = fmt.Errorf("simsvc: %s/%v/%v: %w", spec.Workload, spec.Variant, spec.Model, err)
	}
	s.settle(key, k, o)
}

// cellName renders a harness key as the "workload/variant/model" label
// span trees and slow-cell warnings use.
func cellName(k harness.Key) string {
	return fmt.Sprintf("%s/%v/%v", k.Workload, k.Variant, k.Model)
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
	}{"warn", "slow-cell", cellName(k), elapsed.Seconds(), p99, breakdown}
	if b, err := json.Marshal(warn); err == nil {
		fmt.Fprintln(os.Stderr, string(b))
	}
	if s.rec.On(obs.ClassTrace) {
		s.rec.Emit(obs.Event{Class: obs.ClassTrace, Kind: "slow-cell",
			Detail: fmt.Sprintf("%s took %s (p99 %.2fs) %s",
				cellName(k), elapsed.Round(time.Millisecond), p99, breakdown)})
	}
}

// execute runs one cell's simulation — workload lookup, the sample-plan
// or checkpoint tier, then the harness call under the service's fault
// policy — accounts the run, and returns the result, retry count, and
// how long the harness call itself took (0 when the tiers failed before
// any simulation ran). The demand path (runCell) and the thief path
// (RunStolen) both execute cells through here, so a stolen result is
// bit-identical to the demand result for the same key. abort (may be nil)
// lets a mid-run demand cell stop once nothing waits on it.
func (s *Service) execute(ctx context.Context, spec RunSpec, abort func() bool) (core.Result, int, time.Duration, error) {
	pol := harness.RunPolicy{
		MaxAttempts:  s.cfg.MaxAttempts,
		RetryBackoff: s.cfg.RetryBackoff,
		CellTimeout:  s.cfg.CellTimeout,
		StallTimeout: s.cfg.StallTimeout,
		Abort:        abort,
		Notify:       s.cellEvent,
	}
	parent := trace.FromContext(ctx)
	wl, err := workload.ByName(spec.Workload)
	if err != nil {
		return core.Result{}, 0, 0, err
	}
	p := harness.RunParams{
		WarmupInstrs:   spec.WarmupInstrs,
		MaxInstrs:      spec.MaxInstrs,
		IntervalCycles: spec.IntervalCycles,
		WarmupMode:     spec.WarmupMode,
	}
	var sp *harness.SamplePlan
	if spec.simMode() == harness.SimSampled {
		// Sampled cells execute a shared per-workload sampling plan;
		// warmup accounting happens once, at plan-build time.
		ps := parent.Child(trace.PhasePlan)
		var planKey string
		if planKey, err = spec.PlanKey(); err == nil {
			sp, err = s.samplePlan(planKey, wl, spec)
		}
		ps.Finish()
		if err != nil {
			return core.Result{}, 0, 0, err
		}
	} else if spec.WarmupMode == core.WarmupFunctional && spec.WarmupInstrs > 0 {
		var ckKey string
		if ckKey, err = spec.CheckpointKey(); err != nil {
			return core.Result{}, 0, 0, err
		}
		cks := parent.Child(trace.PhaseCheckpoint)
		if p.Checkpoint = s.checkpoint(ckKey, wl, spec.WarmupInstrs); p.Checkpoint == nil {
			// Capture failed: degrade to in-place functional warmup for
			// this cell (bit-identical, just slower).
			s.warmupSimulated.Add(spec.WarmupInstrs)
		}
		cks.Set("restored", strconv.FormatBool(p.Checkpoint != nil))
		cks.Finish()
	} else if spec.WarmupInstrs > 0 {
		s.warmupSimulated.Add(spec.WarmupInstrs)
	}
	var r core.Result
	var retries int
	sim := parent.Child(trace.PhaseSimulate)
	simCtx := trace.NewContext(ctx, sim)
	start := time.Now()
	if sp != nil {
		// Representative intervals run serially within the cell
		// (workers=1): the service pool already parallelizes across
		// cells, and each interval is its own fault-isolated RunCell
		// attempt.
		r, retries, err = harness.RunSampledCell(simCtx, 1,
			wl, spec.Variant, spec.Model, spec.Ablate, sp, p, pol, s.inj)
		if err == nil {
			s.sampledCells.Add(1)
			s.sampledInstrs.Add(sp.Plan.SampledInstrs())
		}
	} else {
		r, retries, err = harness.RunCell(simCtx, wl, spec.Variant, spec.Model, spec.Ablate, p, pol, s.inj)
	}
	elapsed := time.Since(start)
	sim.Finish()
	s.runNanos.Add(uint64(elapsed))
	s.runDur.Observe(elapsed.Seconds())
	s.runsExecuted.Inc()
	return r, retries, elapsed, err
}

// schedulePersist queues a debounced write-behind save of the result
// cache (after each job reaches a terminal state), so a crash loses at
// most the most recent debounce window, not the whole run's results.
func (s *Service) schedulePersist() {
	if s.cfg.CachePath == "" || s.cacheDegraded.Load() {
		return
	}
	s.persistMu.Lock()
	if s.persistStopped || s.persistPending {
		s.persistMu.Unlock()
		return
	}
	s.persistPending = true
	s.bg.Add(1)
	s.persistMu.Unlock()
	go func() {
		defer s.bg.Done()
		time.Sleep(persistDebounce)
		s.persistMu.Lock()
		s.persistPending = false
		if s.persistStopped {
			s.persistMu.Unlock()
			return
		}
		s.persistMu.Unlock()
		s.persistNow()
	}()
}

// persistNow saves the cache, tracking consecutive failures; past the
// configured limit the cache degrades to memory-only mode (health:
// degraded) instead of hammering a dead disk.
func (s *Service) persistNow() {
	err := s.cache.Save(s.cfg.CachePath)
	if err == nil {
		s.persistFailStreak.Store(0)
		s.cacheLoadFailed.Store(false) // a fresh good file now exists
		return
	}
	s.persistFailures.Add(1)
	streak := s.persistFailStreak.Add(1)
	s.event("persist-failed", err.Error())
	if int(streak) >= s.cfg.PersistFailureLimit && s.cacheDegraded.CompareAndSwap(false, true) {
		s.event("cache-degraded",
			fmt.Sprintf("persistence disabled after %d consecutive failures: %v", streak, err))
	}
}

// Shutdown stops intake, cancels queued-but-unstarted cells, lets
// in-flight simulations finish (a cell all of whose waiting jobs died is
// aborted), then persists the cache. The pool is always waited for
// (nothing leaks); if ctx expires during that wait the cache is still
// persisted and ctx.Err() is reported.
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
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = ctx.Err()
		<-done
	}
	// Stop write-behind persists, wait for any in-flight one, then do
	// one final synchronous save — unless persistence already degraded.
	s.persistMu.Lock()
	s.persistStopped = true
	s.persistMu.Unlock()
	s.bg.Wait()
	if s.cfg.CachePath != "" && !s.cacheDegraded.Load() {
		if err := s.cache.Save(s.cfg.CachePath); err != nil {
			s.persistFailures.Add(1)
			s.journal.close()
			return err
		}
	}
	s.journal.close()
	return waitErr
}
