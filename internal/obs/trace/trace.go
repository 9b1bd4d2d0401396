// Package trace is the sweep-lifecycle span model: one trace per sweep
// job, one span tree per cell, with a span for every phase a cell passes
// through on its way to a result — queue wait, cache lookup, checkpoint
// restore, sample-plan build, detailed or sampled simulation (including
// per-attempt retry spans and per-representative interval spans) and
// result reconstruction.
//
// The design rule mirrors obs.Class's masking discipline one level up:
// every producer holds a possibly-nil *Tracer / *JobTrace / *CellTrace /
// *Span, and every method is nil-receiver safe. With tracing off the
// tracer is nil, StartJob returns nil, and every downstream call is a
// single nil check with no allocation — results are bit-identical to an
// untraced build. Spans propagate through the harness via
// context.Context (NewContext/FromContext), so the retry and sampling
// layers need no tracing-specific plumbing in their signatures.
package trace

import (
	"context"
	"sync"
	"time"
)

// Phase names. Direct children of a cell's root span are the phases the
// Attribution breakdown accounts; the nested names appear under
// PhaseSimulate.
const (
	// RootName is the root span of a cell (starts at enqueue,
	// finishes at delivery — the cell's reported wall clock).
	RootName = "cell"
	// PhaseQueue is the submit-to-start wait on the worker pool.
	PhaseQueue = "queue-wait"
	// PhaseCache is the result-cache lookup (attr hit=true|false).
	PhaseCache = "cache-lookup"
	// PhasePeer is the cache-peering fabric lookup on a local miss
	// (attrs hit=true|false, peer=<url> on a hit).
	PhasePeer = "peer-lookup"
	// PhaseAwait covers a cell that joined an identical in-flight run and
	// waited for its result instead of executing.
	PhaseAwait = "await-inflight"
	// PhasePlan is the sample-plan tier (build or join).
	PhasePlan = "plan"
	// PhaseCheckpoint is the warmup-checkpoint tier (capture/restore).
	PhaseCheckpoint = "checkpoint"
	// PhaseSimulate wraps the harness call; its children are the attempt,
	// backoff, interval and reconstruct spans below.
	PhaseSimulate = "simulate"
	// PhaseAttempt is one RunCell attempt (attr n, outcome).
	PhaseAttempt = "attempt"
	// PhaseBackoff is the pre-retry exponential-backoff sleep.
	PhaseBackoff = "retry-backoff"
	// PhaseInterval is one sampled-mode representative interval.
	PhaseInterval = "interval"
	// PhaseReconstruct is the sampled-mode weighted reconstruction.
	PhaseReconstruct = "reconstruct"
	// PhaseProxy is a cluster request forwarded to the job's owner node
	// (attrs owner=<node>, status=<code>); lives in the cluster layer's
	// own trace, not a cell trace.
	PhaseProxy = "proxy"
	// PhaseStealClaim covers work stealing: on the owner, the wait for a
	// leased (stolen) cell's result (attrs thief, outcome); on the thief,
	// the claim + execution of a stolen cell.
	PhaseStealClaim = "steal-claim"
)

// Tracer owns the retained job traces (a bounded LRU by submission
// order). A nil *Tracer is the tracing-off state: every method no-ops.
type Tracer struct {
	maxJobs int

	mu    sync.Mutex
	jobs  map[string]*JobTrace
	order []string
}

// DefaultMaxJobs bounds retained job traces when the caller passes 0.
const DefaultMaxJobs = 64

// New returns a tracer retaining up to maxJobs job traces (0: default).
func New(maxJobs int) *Tracer {
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	return &Tracer{maxJobs: maxJobs, jobs: make(map[string]*JobTrace)}
}

// StartJob opens a trace for one sweep job, evicting the oldest retained
// trace past the bound. Nil tracer: returns nil.
func (t *Tracer) StartJob(id string) *JobTrace {
	if t == nil {
		return nil
	}
	jt := &JobTrace{id: id, epoch: time.Now()}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.jobs[id]; !ok {
		t.order = append(t.order, id)
	}
	t.jobs[id] = jt
	for len(t.order) > t.maxJobs {
		delete(t.jobs, t.order[0])
		t.order = t.order[1:]
	}
	return jt
}

// Job returns the retained trace for a job ID (nil when evicted, never
// started, or the tracer is nil).
func (t *Tracer) Job(id string) *JobTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// Jobs reports how many job traces are retained.
func (t *Tracer) Jobs() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// JobTrace is one sweep job's trace: an epoch (span offsets in the
// serialized form are relative to it) and a cell trace per scheduled
// cell.
type JobTrace struct {
	id    string
	epoch time.Time

	mu    sync.Mutex
	cells []*CellTrace
}

// StartCell opens a cell trace whose root span starts at start (the
// enqueue time, so the root's duration is the cell's reported
// wall-clock). Nil JobTrace: returns nil.
func (jt *JobTrace) StartCell(cell string, start time.Time) *CellTrace {
	if jt == nil {
		return nil
	}
	ct := &CellTrace{cell: cell, epoch: jt.epoch}
	ct.root = &Span{ct: ct, name: RootName, start: start}
	jt.mu.Lock()
	jt.cells = append(jt.cells, ct)
	jt.mu.Unlock()
	return ct
}

// CellTrace is one cell's span tree. One mutex guards the whole tree —
// span churn is a handful of operations per cell phase, never per
// simulated cycle, so contention is irrelevant and the invariants stay
// trivial.
type CellTrace struct {
	cell  string
	epoch time.Time

	mu   sync.Mutex
	root *Span
}

// Cell returns the cell's "workload/variant/model" name.
func (ct *CellTrace) Cell() string {
	if ct == nil {
		return ""
	}
	return ct.cell
}

// Root returns the root span (nil on a nil trace).
func (ct *CellTrace) Root() *Span {
	if ct == nil {
		return nil
	}
	return ct.root
}

// Finish closes the root span now.
func (ct *CellTrace) Finish() { ct.Root().Finish() }

// Attr is one key/value annotation on a span.
type Attr struct{ Key, Value string }

// Span is one timed phase. All mutation goes through the owning
// CellTrace's mutex; a nil *Span no-ops every method, which is what
// makes the tracing-off path allocation-free.
type Span struct {
	ct       *CellTrace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Child opens a sub-span starting now.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, time.Now())
}

// ChildAt opens a sub-span with an explicit start (retroactive spans
// like queue-wait, whose start predates the tracing call site).
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{ct: s.ct, name: name, start: start}
	s.ct.mu.Lock()
	s.children = append(s.children, c)
	s.ct.mu.Unlock()
	return c
}

// Finish closes the span now. Closing twice keeps the first end.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.FinishAt(time.Now())
}

// FinishAt closes the span at an explicit time.
func (s *Span) FinishAt(t time.Time) {
	if s == nil {
		return
	}
	s.ct.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	s.ct.mu.Unlock()
}

// Set annotates the span.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.ct.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.ct.mu.Unlock()
}

// ctxKey keys the span carried by a context.
type ctxKey struct{}

// NewContext attaches a span to ctx. A nil span returns ctx unchanged,
// so the tracing-off path allocates nothing.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span attached by NewContext (nil when none).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
