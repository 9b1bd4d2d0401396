package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// FailKind classifies why a cell attempt failed.
type FailKind string

const (
	// FailExec is a deterministic simulation error (bad config, pipeline
	// watchdog deadlock, checkpoint mismatch). Retrying re-runs the same
	// deterministic simulation, so exec failures are never retried.
	FailExec FailKind = "exec"
	// FailPanic is a panic recovered from the cell's goroutine. Treated
	// as transient: nothing in a deterministic simulation should panic,
	// so one that does points at its environment.
	FailPanic FailKind = "panic"
	// FailTimeout is a per-cell wall-clock deadline expiry.
	FailTimeout FailKind = "timeout"
	// FailStall is the progress-based watchdog: wall time kept passing
	// while the committed-instruction count stopped advancing.
	FailStall FailKind = "stall"
)

// Sentinel errors the in-pipeline check hook returns; RunCell classifies
// them into CellError kinds.
var (
	ErrCellTimeout = errors.New("harness: cell exceeded its wall-clock deadline")
	ErrCellStalled = errors.New("harness: cell stopped committing instructions (stalled)")
	// ErrCellAbandoned aborts a cell none of whose consumers still wants
	// the result (see RunPolicy.Abort). Treated like cancellation: never
	// retried, never wrapped in a CellError.
	ErrCellAbandoned = errors.New("harness: cell abandoned (no live waiters)")
)

// CellError is the typed failure of one sweep cell after all attempts.
type CellError struct {
	Key      Key
	Kind     FailKind
	Attempts int    // attempts performed (≥ 1)
	Stack    string // goroutine stack for FailPanic, else empty
	Err      error  // the last attempt's underlying error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("harness: cell %s/%v/%v failed (%s after %d attempt(s)): %v",
		e.Key.Workload, e.Key.Variant, e.Key.Model, e.Kind, e.Attempts, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// transient reports whether this failure kind is worth retrying.
func (e *CellError) transient() bool { return e.Kind != FailExec }

// CellEvent notifies RunPolicy.Notify observers of per-attempt outcomes:
// Kind is "panic", "timeout", "stall" or "exec" when an attempt fails,
// and "retry" when a new attempt is about to start after a failure.
type CellEvent struct {
	Kind    string
	Key     Key
	Attempt int
	Err     error
}

// RunPolicy is the per-cell fault-tolerance policy. The zero value means
// one attempt, no deadline, no stall watchdog — exactly the historical
// behavior.
type RunPolicy struct {
	// MaxAttempts bounds attempts per cell (≤ 0 or 1: no retries).
	MaxAttempts int
	// RetryBackoff is the base delay before attempt 2; it doubles per
	// subsequent attempt, with a deterministic ±50% jitter drawn from the
	// cell key. 0 with retries enabled uses 100ms.
	RetryBackoff time.Duration
	// CellTimeout is a wall-clock deadline per attempt (0: none).
	CellTimeout time.Duration
	// StallTimeout kills an attempt whose committed-instruction count has
	// not advanced for this long of wall time (0: no stall watchdog). It
	// catches live-but-stuck simulations the cycle-count watchdog cannot
	// (the pipeline watchdog counts simulated cycles, which stop
	// advancing too when the simulator thread is wedged).
	StallTimeout time.Duration
	// Abort, when non-nil, is polled from inside the simulation; true
	// aborts the attempt with ErrCellAbandoned. The simulation service
	// uses it to abandon cells whose waiting jobs have all terminated.
	Abort func() bool
	// Notify, when non-nil, observes per-attempt outcomes (metrics).
	Notify func(CellEvent)
}

func (pol RunPolicy) attempts() int {
	if pol.MaxAttempts <= 0 {
		return 1
	}
	return pol.MaxAttempts
}

func (pol RunPolicy) notify(ev CellEvent) {
	if pol.Notify != nil {
		pol.Notify(ev)
	}
}

// backoffFor returns the pre-attempt backoff: base doubling per attempt
// beyond the first retry, scaled by a deterministic jitter factor in
// [0.5, 1.5) drawn from (key, attempt) so concurrent retries de-correlate
// without making a retried run unrepeatable.
func (pol RunPolicy) backoffFor(k Key, attempt int) time.Duration {
	base := pol.RetryBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << uint(attempt-1)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%v/%v|%d", k.Workload, k.Variant, k.Model, attempt)
	jitter := 0.5 + float64(h.Sum64()>>11)/(1<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// RunCell executes one sweep cell under a fault-tolerance policy: panics
// are recovered into CellErrors, each attempt runs under the optional
// wall-clock deadline and progress-based stall watchdog, and transient
// failures are retried up to pol.MaxAttempts with exponential backoff.
// It returns the result, the number of retries performed (attempts - 1),
// and the terminal error, which is a *CellError for cell failures or a
// plain cancellation error (ctx.Err(), ErrCellAbandoned) when the caller
// stopped caring. With a zero policy this is RunOne plus one recover
// frame.
func RunCell(ctx context.Context, wl workload.Workload, v core.Variant, m pipeline.AttackModel,
	ab core.Ablation, p RunParams, pol RunPolicy) (core.Result, int, error) {
	k := Key{wl.Name, v, m}
	// The parent span (nil with tracing off — every span call below is
	// then a bare nil check) gets a child per attempt and per backoff
	// sleep, so a retried cell's trace shows where the wall clock went.
	parent := trace.FromContext(ctx)
	var last *CellError
	for attempt := 0; attempt < pol.attempts(); attempt++ {
		if attempt > 0 {
			pol.notify(CellEvent{Kind: "retry", Key: k, Attempt: attempt, Err: last})
			bo := parent.Child(trace.PhaseBackoff)
			t := time.NewTimer(pol.backoffFor(k, attempt))
			select {
			case <-ctx.Done():
				t.Stop()
				bo.Finish()
				return core.Result{}, attempt, ctx.Err()
			case <-t.C:
			}
			bo.Finish()
		}
		as := parent.Child(trace.PhaseAttempt)
		as.Set("n", strconv.Itoa(attempt+1))
		r, err := runAttempt(ctx, wl, v, m, ab, p, pol)
		if err == nil {
			as.Set("outcome", "ok")
			as.Finish()
			return r, attempt, nil
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			// Cancellation / abandonment: the caller stopped caring;
			// pass it through untyped and unretried.
			as.Set("outcome", "cancelled")
			as.Finish()
			return core.Result{}, attempt, err
		}
		ce.Key = k
		ce.Attempts = attempt + 1
		last = ce
		as.Set("outcome", string(ce.Kind))
		as.Finish()
		pol.notify(CellEvent{Kind: string(ce.Kind), Key: k, Attempt: attempt, Err: ce.Err})
		if !ce.transient() {
			break
		}
	}
	return core.Result{}, last.Attempts - 1, last
}

// runAttempt performs one attempt: the check hook wired into the
// pipeline, and panic recovery around the whole run — the hook included.
func runAttempt(ctx context.Context, wl workload.Workload, v core.Variant, m pipeline.AttackModel,
	ab core.Ablation, p RunParams, pol RunPolicy) (r core.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &CellError{Kind: FailPanic, Stack: string(debug.Stack()),
				Err: fmt.Errorf("panic: %v", rec)}
		}
	}()
	check, stop := buildCheck(ctx, pol)
	if stop != nil {
		defer stop()
	}
	p.Check = check
	r, runErr := RunOne(wl, v, m, ab, p)
	if runErr == nil {
		return r, nil
	}
	switch {
	case errors.Is(runErr, ErrCellTimeout):
		return core.Result{}, &CellError{Kind: FailTimeout, Err: runErr}
	case errors.Is(runErr, ErrCellStalled):
		return core.Result{}, &CellError{Kind: FailStall, Err: runErr}
	case errors.Is(runErr, context.Canceled), errors.Is(runErr, context.DeadlineExceeded),
		errors.Is(runErr, ErrCellAbandoned):
		return core.Result{}, runErr
	default:
		return core.Result{}, &CellError{Kind: FailExec, Err: runErr}
	}
}

// buildCheck assembles the in-pipeline check hook for one attempt, and a
// stop function for the stall-watchdog goroutine (nil when no watchdog
// runs). Returns (nil, nil) when nothing needs checking, keeping the
// untouched path's per-cycle cost at a single nil compare.
func buildCheck(ctx context.Context, pol RunPolicy) (func(cycle, committed uint64) error, func()) {
	needCtx := ctx.Done() != nil
	if !needCtx && pol.CellTimeout <= 0 && pol.StallTimeout <= 0 && pol.Abort == nil {
		return nil, nil
	}
	var deadline time.Time
	if pol.CellTimeout > 0 {
		deadline = time.Now().Add(pol.CellTimeout)
	}

	// The stall watchdog reads the committed count the check hook
	// publishes. It cannot live inside the hook itself: a wedged
	// simulator thread stops calling the hook, which is exactly the
	// condition to detect.
	var committed atomic.Uint64
	var stalled atomic.Bool
	var stop func()
	if pol.StallTimeout > 0 {
		done := make(chan struct{})
		go func() {
			tick := pol.StallTimeout / 8
			if tick < time.Millisecond {
				tick = time.Millisecond
			}
			t := time.NewTicker(tick)
			defer t.Stop()
			last := committed.Load()
			lastAdvance := time.Now()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if cur := committed.Load(); cur != last {
						last = cur
						lastAdvance = time.Now()
						continue
					}
					if time.Since(lastAdvance) >= pol.StallTimeout {
						stalled.Store(true)
						return
					}
				}
			}
		}()
		stop = func() { close(done) }
	}

	check := func(cycle, c uint64) error {
		committed.Store(c)
		if needCtx {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		if pol.Abort != nil && pol.Abort() {
			return ErrCellAbandoned
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrCellTimeout
		}
		if stalled.Load() {
			return ErrCellStalled
		}
		return nil
	}
	return check, stop
}
