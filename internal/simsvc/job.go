package simsvc

import (
	"context"
	"errors"
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
	// JobDegraded is a sweep that completed with some cells permanently
	// failed: the surviving cells are exportable (filtered to workloads
	// with no failures), the failures are itemized in Status.
	JobDegraded JobState = "degraded"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool { return s != JobRunning }

// ErrCancelled marks cells abandoned because their job (or the service)
// was cancelled.
var ErrCancelled = errors.New("simsvc: job cancelled")

// Failure itemizes one permanently-failed cell in a job's status.
type Failure struct {
	Cell     string `json:"cell"` // "workload/variant/model"
	Kind     string `json:"kind"` // exec | panic | timeout | stall
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// Job is one submitted sweep: its resolved options, per-cell results as
// they arrive, and progress lines for streaming.
type Job struct {
	ID string

	opt    harness.Options
	ctx    context.Context
	cancel context.CancelFunc

	// ablation marks a design-space-study job: cells enumerate (model,
	// workload, ablation row) and results are recorded by cell index,
	// because the harness.Key (workload, Hybrid, model) repeats across the
	// rows and would collide in the runs map.
	ablation bool
	cellRes  []core.Result

	// jt is the job's span-tree trace (nil with tracing off). Set by
	// Submit before any cell is enqueued, immutable afterwards.
	jt *trace.JobTrace

	// onTerminal, set by the service before the job starts, observes the
	// transition to a terminal state (persistence scheduling, registry
	// eviction). Called exactly once, outside j.mu, before done is closed.
	onTerminal func(*Job)

	mu        sync.Mutex
	state     JobState
	total     int
	completed int
	cached    int
	failed    int
	retries   uint64
	failures  []Failure
	failedIdx map[int]bool    // ablation cells that failed (by index)
	failedWl  map[string]bool // workloads with ≥ 1 failed cell
	progress  []string
	runs      map[harness.Key]core.Result
	attrib    map[harness.Key]*trace.Attribution // per-cell breakdowns (tracing on, sweep jobs only)
	err       error
	finished  time.Time
	done      chan struct{}
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
// returned func must be invoked after j.mu is released. It runs the
// onTerminal notification and only then closes done, so a waiter on
// Done() never sees the job finished before the service has scheduled
// its cache persist and enforced the registry bounds.
func (j *Job) finish(state JobState, err error) func() {
	j.state = state
	j.err = err
	j.finished = time.Now()
	return func() {
		if j.onTerminal != nil {
			j.onTerminal(j)
		}
		close(j.done)
	}
}

// TryCancel atomically cancels the job if it is still running. It returns
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
	j.cancel()
	note()
	return true, JobCancelled
}

// Cancel abandons the job: cells not yet started are skipped; a cell
// already simulating is abandoned once no other live job waits on it.
func (j *Job) Cancel() { j.TryCancel() }

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

// deliver records one completed cell. idx is the cell's index in the
// job's enumeration order (ablation jobs record by index; sweep jobs by
// harness.Key). retries counts attempts beyond the first that the cell
// needed; att is the cell's latency attribution (nil with tracing off).
func (j *Job) deliver(idx int, k harness.Key, r core.Result, line string, fromCache bool, retries int, att *trace.Attribution) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	if j.ablation {
		j.cellRes[idx] = r
	} else {
		j.runs[k] = r
		if att != nil {
			if j.attrib == nil {
				j.attrib = make(map[harness.Key]*trace.Attribution)
			}
			j.attrib[k] = att
		}
	}
	j.completed++
	j.retries += uint64(retries)
	if fromCache {
		j.cached++
	}
	j.progress = append(j.progress, line)
	note := j.maybeFinish()
	j.mu.Unlock()
	note()
}

// cellFail records one permanently-failed cell; the job keeps running and
// finishes degraded (or failed, if nothing succeeded) once every cell is
// accounted for.
func (j *Job) cellFail(idx int, k harness.Key, f Failure, line string, retries int) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	j.failed++
	j.retries += uint64(retries)
	j.failures = append(j.failures, f)
	if j.failedIdx == nil {
		j.failedIdx = make(map[int]bool)
		j.failedWl = make(map[string]bool)
	}
	j.failedIdx[idx] = true
	j.failedWl[k.Workload] = true
	j.progress = append(j.progress, line)
	note := j.maybeFinish()
	j.mu.Unlock()
	note()
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
	j.cancel()
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
	// Failed counts permanently-failed cells; Retries counts cell
	// attempts beyond the first across the job; Failures itemizes the
	// failed cells.
	Failed   int       `json:"failed_runs,omitempty"`
	Retries  uint64    `json:"retries,omitempty"`
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
		Retries:   j.retries,
		Failures:  append([]Failure(nil), j.failures...),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// ProgressSince returns progress lines from index i on, plus the new
// high-water mark.
func (j *Job) ProgressSince(i int) ([]string, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(j.progress) {
		return nil, i
	}
	out := append([]string(nil), j.progress[i:]...)
	return out, len(j.progress)
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
	if j.state != JobDone && j.state != JobDegraded {
		if j.err != nil {
			return nil, j.err
		}
		return nil, errors.New("simsvc: job still running")
	}
	opt := j.opt
	if len(j.failedWl) > 0 {
		opt.Workloads = nil
		for _, wl := range j.opt.Workloads {
			if !j.failedWl[wl.Name] {
				opt.Workloads = append(opt.Workloads, wl)
			}
		}
	}
	runs := make(map[harness.Key]core.Result, len(j.runs))
	for k, r := range j.runs {
		if j.failedWl[k.Workload] {
			continue
		}
		runs[k] = r
	}
	res := &harness.Results{Opt: opt, Runs: runs}
	if len(j.attrib) > 0 {
		res.Attrib = make(map[harness.Key]*trace.Attribution, len(j.attrib))
		for k, a := range j.attrib {
			if j.failedWl[k.Workload] {
				continue
			}
			res.Attrib[k] = a
		}
	}
	return res, nil
}

// AblationSection is one attack model's ablation table.
type AblationSection struct {
	Model string                `json:"model"`
	Rows  []harness.AblationRow `json:"rows"`
}

// AblationExport is the machine-readable ablation-study document the
// export endpoint serves for ablation jobs.
type AblationExport struct {
	MaxInstrs    uint64            `json:"max_instrs"`
	WarmupInstrs uint64            `json:"warmup_instrs"`
	Sections     []AblationSection `json:"ablations"`
}

// Ablations aggregates a completed ablation job into per-model tables,
// using the same aggregation the CLI's RunAblations performs. Cell order
// (fixed by Submit) is model-major, then workload, then 1 Unsafe baseline
// followed by the harness's ablation rows. In a degraded job, a workload
// block containing any failed cell is zeroed, which AggregateAblations
// skips — matching the CLI's tolerant-ablation behavior.
func (j *Job) Ablations() (*AblationExport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.ablation {
		return nil, errors.New("simsvc: not an ablation job")
	}
	if j.state != JobDone && j.state != JobDegraded {
		if j.err != nil {
			return nil, j.err
		}
		return nil, errors.New("simsvc: job still running")
	}
	ex := &AblationExport{MaxInstrs: j.opt.MaxInstrs, WarmupInstrs: j.opt.WarmupInstrs}
	rowsPer := len(harness.AblationRows())
	perWorkload := 1 + rowsPer
	perModel := len(j.opt.Workloads) * perWorkload
	for mi, m := range j.opt.Models {
		rows := harness.AblationRows()
		cycles := make([][]uint64, len(j.opt.Workloads))
		for wi := range j.opt.Workloads {
			wc := make([]uint64, perWorkload)
			blockFailed := false
			for ci := 0; ci < perWorkload; ci++ {
				idx := mi*perModel + wi*perWorkload + ci
				if j.failedIdx[idx] {
					blockFailed = true
					break
				}
				wc[ci] = j.cellRes[idx].Cycles
			}
			if blockFailed {
				wc = make([]uint64, perWorkload)
			}
			cycles[wi] = wc
		}
		harness.AggregateAblations(rows, cycles)
		ex.Sections = append(ex.Sections, AblationSection{Model: m.String(), Rows: rows})
	}
	return ex, nil
}
