package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func testWorkload(t *testing.T) workload.Workload {
	t.Helper()
	wl, err := workload.ByName("mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// cellParams must run long enough to poll the in-pipeline check hook
// (every 4096 cycles) several times, while staying fast.
func cellParams() RunParams {
	return RunParams{WarmupInstrs: 1000, MaxInstrs: 30_000}
}

// freezeOnce is a RunPolicy.Abort that, at the cell's first progress
// check, holds the simulator thread for d — wall time passes while the
// simulation does not, the deadline's trigger — and counts the freezes
// in *n.
func freezeOnce(d time.Duration, n *int) func() bool {
	frozen := false
	return func() bool {
		if !frozen {
			frozen = true
			*n++
			time.Sleep(d)
		}
		return false
	}
}

// With a zero policy, RunCell is RunOne plus a recover frame:
// bit-identical result.
func TestRunCellZeroPolicyMatchesRunOne(t *testing.T) {
	wl := testWorkload(t)
	p := cellParams()
	want, err := RunOne(wl, core.Unsafe, pipeline.Spectre, core.Ablation{}, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, p, RunPolicy{})
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if got.Cycles != want.Cycles || got.Committed != want.Committed {
		t.Fatalf("RunCell result %+v != RunOne result %+v", got, want)
	}
}

// A panic thrown from the progress check, inside the running simulation,
// is recovered (not propagated, not fatal to the caller) into one typed
// FailPanic CellError with a stack. The cell runs once: the hook, which
// panics on every call, panicked exactly once.
func TestRunCellPanicFailsOnce(t *testing.T) {
	wl := testWorkload(t)
	panics := 0
	pol := RunPolicy{Abort: func() bool { panics++; panic("cell fault") }}
	_, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.Kind != FailPanic || panics != 1 {
		t.Fatalf("kind=%s after %d panics, want panic after 1", ce.Kind, panics)
	}
	if ce.Stack == "" {
		t.Fatal("panic CellError has no stack")
	}
	if ce.Key != (Key{Workload: wl.Name, Variant: core.Unsafe, Model: pipeline.Spectre}) {
		t.Fatalf("CellError key = %+v", ce.Key)
	}
}

// A cell that exceeds its wall-clock deadline is killed with FailTimeout.
func TestRunCellDeadline(t *testing.T) {
	wl := testWorkload(t)
	freezes := 0
	pol := RunPolicy{CellTimeout: 30 * time.Millisecond, Abort: freezeOnce(120*time.Millisecond, &freezes)}
	_, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Kind != FailTimeout || freezes != 1 {
		t.Fatalf("err = %v after %d freezes, want timeout CellError after 1", err, freezes)
	}
	if !errors.Is(err, errCellTimeout) {
		t.Fatal("timeout error does not unwrap to errCellTimeout")
	}
}

// A deterministic simulation error is FailExec, from the one run.
func TestRunCellExecErrorNotRetried(t *testing.T) {
	wl := testWorkload(t)
	polls := 0
	pol := RunPolicy{Abort: func() bool { polls++; return false }}
	// Functional-warmup restore with a detailed-mode config is a
	// deterministic config error inside RunOne, raised before the
	// simulation polls its check hook.
	p := cellParams()
	p.Checkpoint = CaptureCheckpoint(wl, 500)
	_, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, p, pol)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Kind != FailExec {
		t.Fatalf("err = %v, want exec CellError", err)
	}
	if polls != 0 {
		t.Fatalf("the check hook ran %d times, want 0", polls)
	}
}

// Cancellation interrupts a running cell mid-simulation and propagates
// as ctx.Err(), not as a CellError. The first progress check cancels, so
// the next one is inside the same run.
func TestRunCellCancellationMidRun(t *testing.T) {
	wl := testWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polls := 0
	pol := RunPolicy{Abort: func() bool { polls++; cancel(); return false }}
	_, err := RunCell(ctx, wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	var ce *CellError
	if errors.As(err, &ce) {
		t.Fatalf("cancellation wrapped in CellError: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls != 1 {
		t.Fatalf("%d progress checks reached the hook, want 1", polls)
	}
}

// Abort (flight abandonment) kills the cell with ErrCellAbandoned.
func TestRunCellAbort(t *testing.T) {
	wl := testWorkload(t)
	pol := RunPolicy{Abort: func() bool { return true }}
	_, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	if !errors.Is(err, ErrCellAbandoned) {
		t.Fatalf("err = %v, want ErrCellAbandoned", err)
	}
}
