package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// FailKind classifies why a cell failed.
type FailKind string

const (
	// FailExec is a simulation error (bad config, pipeline watchdog
	// deadlock, checkpoint mismatch).
	FailExec FailKind = "exec"
	// FailPanic is a panic recovered from the cell's goroutine.
	FailPanic FailKind = "panic"
	// FailTimeout is a per-cell wall-clock deadline expiry.
	FailTimeout FailKind = "timeout"
)

// Sentinel errors the in-pipeline check hook returns; RunCell classifies
// them.
var (
	errCellTimeout = errors.New("harness: cell exceeded its wall-clock deadline")
	// ErrCellAbandoned aborts a cell none of whose consumers still wants
	// the result (see RunPolicy.Abort). Treated like cancellation: never
	// wrapped in a CellError.
	ErrCellAbandoned = errors.New("harness: cell abandoned (no live waiters)")
)

// CellError is the typed failure of one sweep cell. A cell runs once:
// the simulation is deterministic, so running it again would fail the
// same way.
type CellError struct {
	Key   Key
	Kind  FailKind
	Stack string // goroutine stack for FailPanic, else empty
	Err   error  // the underlying error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("harness: cell %v failed (%s): %v", e.Key, e.Kind, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// RunPolicy bounds one cell's run. The zero value means no deadline and
// no abort hook.
type RunPolicy struct {
	// CellTimeout is a wall-clock deadline per cell (0: none). It bounds
	// a slow cell; a core that cycles without committing is caught by
	// the pipeline's own WatchdogCycles.
	CellTimeout time.Duration
	// Abort, when non-nil, is polled from inside the simulation; true
	// aborts the cell with ErrCellAbandoned. The simulation service
	// uses it to abandon cells whose waiting jobs have all terminated.
	Abort func() bool
}

// RunCell executes one sweep cell once, under pol: a panic is recovered
// into a CellError, and the run stops at the optional wall-clock deadline
// or abort. The error is a *CellError for a cell failure, or a plain
// cancellation error (ctx.Err(), ErrCellAbandoned) when the caller
// stopped caring. With a zero policy and a context that is never
// cancelled this is RunOne plus one recover frame.
func RunCell(ctx context.Context, wl workload.Workload, v core.Variant, m pipeline.AttackModel,
	ab core.Ablation, p RunParams, pol RunPolicy) (r core.Result, err error) {
	k := Key{Workload: wl.Name, Variant: v, Model: m, Ablate: ab}
	defer func() {
		if rec := recover(); rec != nil {
			r, err = core.Result{}, &CellError{Key: k, Kind: FailPanic,
				Stack: string(debug.Stack()), Err: fmt.Errorf("panic: %v", rec)}
		}
	}()
	p.Check = buildCheck(ctx, pol)
	r, err = RunOne(wl, v, m, ab, p)
	kind := FailExec
	switch {
	case err == nil:
		return r, nil
	case errors.Is(err, errCellTimeout):
		kind = FailTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrCellAbandoned):
		return core.Result{}, err
	}
	return core.Result{}, &CellError{Key: k, Kind: kind, Err: err}
}

// buildCheck assembles the in-pipeline check hook for one cell. It
// returns nil when nothing needs checking, keeping the untouched path's
// per-cycle cost at a single nil compare.
func buildCheck(ctx context.Context, pol RunPolicy) func(cycle, committed uint64) error {
	needCtx := ctx.Done() != nil
	if !needCtx && pol.CellTimeout <= 0 && pol.Abort == nil {
		return nil
	}
	var deadline time.Time
	if pol.CellTimeout > 0 {
		deadline = time.Now().Add(pol.CellTimeout)
	}
	return func(_, _ uint64) error {
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
			return errCellTimeout
		}
		return nil
	}
}
