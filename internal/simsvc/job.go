package simsvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs/trace"
)

// JobState is a sweep job's lifecycle state.
type JobState string

const (
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	// JobDegraded is a sweep that completed with some cells failed: the
	// surviving cells are exportable (filtered to workloads with no
	// failures), the failures are itemized in Status.
	JobDegraded JobState = "degraded"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool { return s != JobRunning }

// ErrCancelled marks cells abandoned because their job (or the service)
// was cancelled.
var ErrCancelled = errors.New("simsvc: job cancelled")

// Failure itemizes one failed cell in a job's status.
type Failure struct {
	Cell  string `json:"cell"` // harness.Key.String()
	Kind  string `json:"kind"` // exec | panic | timeout
	Error string `json:"error"`
}

// Job is one submitted sweep: its resolved options and one small record
// per cell, at the cell's position in the resolved grid (Options.Specs or
// AblationSpecs order).
type Job struct {
	ID string

	opt    harness.Options
	ctx    context.Context
	cancel context.CancelFunc

	// ablation marks a design-space-study job: its export is the
	// ablation tables (Ablations), not the sweep document (Results).
	ablation bool

	// jt is the job's span-tree trace (nil with tracing off). Set by
	// Submit before any cell is enqueued, immutable afterwards.
	jt *trace.JobTrace
	// peers is the job's one batched peer lookup (nil without peers).
	peers *peerBatch

	// onTerminal, set by the service before the job starts, observes the
	// transition to a terminal state (registry eviction). Called exactly
	// once, outside j.mu, before done is closed.
	onTerminal func(*Job)

	// keys[i] names cell i. The slice is shared by every job of the same
	// grid (Service.gridKeys) and never written.
	keys []harness.Key

	mu        sync.Mutex
	state     JobState
	total     int
	completed int
	cached    int
	failed    int
	failures  []Failure
	// The cell records, each written once, when its cell finishes, and
	// never changed after: res[i] is the result cell i shares with the
	// cache (read-only; nil for a failed cell), how[i] how it was
	// obtained, and att[i] its latency attribution (att is nil unless the
	// job is traced). order lists the finished cells' positions in the
	// order they finished, which is the progress stream's.
	res      []*core.Result
	how      []provenance
	att      []*trace.Attribution
	order    []uint16
	err      error
	finished time.Time
	done     chan struct{}
}

// maxCells bounds a job's cells, so that a uint16 names each position.
const maxCells = 1 << 16

// provenance is how a finished cell was obtained. It renders the suffix
// of the cell's progress line; unfinished is a cell still under way.
type provenance uint8

const (
	unfinished provenance = iota
	simulated
	fromCache
	fromPeer
	fromThief
	cellFailed
)

// note is the progress-line suffix of a cell obtained this way.
func (p provenance) note() string {
	switch p {
	case fromCache:
		return "  [cached]"
	case fromPeer:
		return "  [peer]"
	case fromThief:
		return "  [stolen]"
	}
	return ""
}

// newJob returns a running job over the cells keys names, as a child of
// parent; a traced job keeps an attribution per cell.
func newJob(parent context.Context, opt harness.Options, keys []harness.Key, traced bool) *Job {
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		opt:    opt,
		ctx:    ctx,
		cancel: cancel,
		keys:   keys,
		state:  JobRunning,
		total:  len(keys),
		res:    make([]*core.Result, len(keys)),
		how:    make([]provenance, len(keys)),
		order:  make([]uint16, 0, len(keys)),
		done:   make(chan struct{}),
	}
	if traced {
		j.att = make([]*trace.Attribution, len(keys))
	}
	return j
}

// progressLine renders the line of finished cell at; failures is a
// snapshot of j.failures taken after the cell finished.
func (j *Job) progressLine(at int, failures []Failure) string {
	k := j.keys[at]
	if j.how[at] != cellFailed {
		return harness.FormatProgress(k, *j.res[at]) + j.how[at].note()
	}
	cell := k.String()
	for _, f := range failures {
		if f.Cell == cell {
			return fmt.Sprintf("%-14s %-11s %-10s FAILED: %s: %s", k.Workload, k.Variant, k.Model, f.Kind, f.Error)
		}
	}
	return ""
}

// Ablation reports whether this is an ablation-study job (its export is
// the ablation table, not the sweep document).
func (j *Job) Ablation() bool { return j.ablation }

// Options returns the job's resolved sweep options.
func (j *Job) Options() harness.Options { return j.opt }

// Trace returns the job's span-tree trace (nil with tracing off).
func (j *Job) Trace() *trace.JobTrace { return j.jt }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job into a terminal state. Caller holds j.mu; the
// returned func must be invoked after j.mu is released. It releases the
// job's context (so a finished job stops being a child of the service's),
// runs the onTerminal notification and only then closes done, so a
// waiter on Done() never sees the job finished before the service has
// enforced the registry bounds.
func (j *Job) finish(state JobState, err error) func() {
	j.state = state
	j.err = err
	j.finished = time.Now()
	return func() {
		j.cancel()
		if j.onTerminal != nil {
			j.onTerminal(j)
		}
		close(j.done)
	}
}

// TryCancel atomically cancels the job if it is still running: cells not
// yet started are skipped; a cell already simulating is abandoned once no
// other live job waits on it. It returns
// whether this call performed the cancellation, plus the state afterwards
// — so callers can distinguish "cancelled now" (true, cancelled),
// "already cancelled" (false, cancelled — idempotent success) and
// "already finished" (false, done/failed/degraded — a conflict).
func (j *Job) TryCancel() (bool, JobState) {
	j.mu.Lock()
	if j.state != JobRunning {
		st := j.state
		j.mu.Unlock()
		return false, st
	}
	note := j.finish(JobCancelled, ErrCancelled)
	j.mu.Unlock()
	note()
	return true, JobCancelled
}

// terminal reports whether the job has finished (under j.mu).
func (j *Job) terminal() bool { return j.state != JobRunning }

// Terminal reports whether the job has finished.
func (j *Job) Terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal()
}

// FinishedAt returns when the job reached a terminal state (zero while
// running).
func (j *Job) FinishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// maybeFinish closes out the job when every cell is accounted for.
// Caller holds j.mu; returns the deferred onTerminal notification.
func (j *Job) maybeFinish() func() {
	if j.completed+j.failed < j.total {
		return func() {}
	}
	if j.failed == 0 {
		return j.finish(JobDone, nil)
	}
	if j.completed == 0 {
		return j.finish(JobFailed, errors.New("simsvc: every cell failed"))
	}
	return j.finish(JobDegraded, nil)
}

// deliver records the completion of cell at. r is the cache's copy of
// the result, which the job shares and never writes; how says how it was
// obtained; att is the cell's latency attribution (nil with tracing off).
func (j *Job) deliver(at int, r *core.Result, how provenance, att *trace.Attribution) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	j.res[at], j.how[at] = r, how
	if j.att != nil {
		j.att[at] = att
	}
	j.order = append(j.order, uint16(at))
	j.completed++
	if how != simulated { // from the cache, a peer or a thief
		j.cached++
	}
	done := j.maybeFinish()
	j.mu.Unlock()
	done()
}

// cellFail records the failure of cell at; the job keeps running and
// finishes degraded (or failed, if nothing succeeded) once every cell is
// accounted for.
func (j *Job) cellFail(at int, f Failure) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	j.failed++
	j.failures = append(j.failures, f)
	j.how[at] = cellFailed
	j.order = append(j.order, uint16(at))
	done := j.maybeFinish()
	j.mu.Unlock()
	done()
}

// fail moves the job to failed (or cancelled, for cancellation errors).
func (j *Job) fail(err error) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	var note func()
	if errors.Is(err, context.Canceled) || errors.Is(err, ErrCancelled) {
		note = j.finish(JobCancelled, err)
	} else {
		note = j.finish(JobFailed, err)
	}
	j.mu.Unlock()
	note()
}

// skip abandons one cell because the job or service is shutting down.
func (j *Job) skip() { j.fail(ErrCancelled) }

// Status is a snapshot of the job's progress.
type Status struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Total     int      `json:"total_runs"`
	Completed int      `json:"completed_runs"`
	Cached    int      `json:"cached_runs"`
	// Failed counts failed cells; Failures itemizes them.
	Failed   int       `json:"failed_runs,omitempty"`
	Failures []Failure `json:"failures,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		State:     j.state,
		Total:     j.total,
		Completed: j.completed,
		Cached:    j.cached,
		Failed:    j.failed,
		Failures:  append([]Failure(nil), j.failures...),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// ProgressSince returns progress lines from index i on, plus the new
// high-water mark. Lines are rendered here, from the cell records, in
// the order the cells finished.
func (j *Job) ProgressSince(i int) ([]string, int) {
	j.mu.Lock()
	order, failures := j.order, j.failures
	j.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(order) {
		return nil, i
	}
	// A record is complete before its position joins order and is never
	// changed after, so the records order names are read unlocked.
	out := make([]string, 0, len(order)-i)
	for _, at := range order[i:] {
		out = append(out, j.progressLine(int(at), failures))
	}
	return out, len(order)
}

// readable reports why the job has no results to read yet (nil once it is
// done or degraded). Caller holds j.mu.
func (j *Job) readable() error {
	if j.state == JobDone || j.state == JobDegraded {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	return errors.New("simsvc: job still running")
}

// runs collects the job's delivered cells, keyed, into harness results
// over opt, skipping any workload in drop. The runs are the results the
// cache holds, shared, not copied: they are read-only. Caller holds j.mu.
func (j *Job) runs(opt harness.Options, drop map[string]bool) *harness.Results {
	res := &harness.Results{Opt: opt, Runs: make(map[harness.Key]*core.Result, j.completed)}
	for at, r := range j.res {
		k := j.keys[at]
		if r == nil || drop[k.Workload] {
			continue
		}
		res.Runs[k] = r
		if j.att != nil && j.att[at] != nil {
			if res.Attrib == nil {
				res.Attrib = make(map[harness.Key]*trace.Attribution, j.completed)
			}
			res.Attrib[k] = j.att[at]
		}
	}
	return res
}

// Results assembles the completed sweep in the harness's form, so the
// service's export is produced by exactly the code path the CLI uses. A
// degraded job exports the surviving configuration: workloads with any
// failed cell are dropped entirely (a partial workload would corrupt the
// normalized-time aggregation, which divides by the workload's Unsafe
// baseline), making the export byte-identical to a fault-free run of the
// remaining workloads.
func (j *Job) Results() (*harness.Results, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ablation {
		return nil, errors.New("simsvc: ablation job has no sweep export (see Ablations)")
	}
	if err := j.readable(); err != nil {
		return nil, err
	}
	var failedWl map[string]bool
	opt := j.opt
	if j.failed > 0 {
		failedWl = make(map[string]bool)
		for at, how := range j.how {
			if how == cellFailed {
				failedWl[j.keys[at].Workload] = true
			}
		}
		opt.Workloads = nil
		for _, wl := range j.opt.Workloads {
			if !failedWl[wl.Name] {
				opt.Workloads = append(opt.Workloads, wl)
			}
		}
	}
	return j.runs(opt, failedWl), nil
}

// Ablations aggregates a completed ablation job's delivered cells into
// the CLI's own document (harness.Results.AblationExport): in a degraded
// job, a workload missing a cell drops out of that model's table.
func (j *Job) Ablations() (harness.AblationExport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.ablation {
		return harness.AblationExport{}, errors.New("simsvc: not an ablation job")
	}
	if err := j.readable(); err != nil {
		return harness.AblationExport{}, err
	}
	return j.runs(j.opt, nil).AblationExport(), nil
}
