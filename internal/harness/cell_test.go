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

// freezeOnce is a RunPolicy.Abort that, at the attempt's first progress
// check, holds the simulator thread for d — wall time passes while the
// committed count stays put, the stall watchdog's and the deadline's
// trigger — and counts the freezes in *n.
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
// bit-identical result, no retries.
func TestRunCellZeroPolicyMatchesRunOne(t *testing.T) {
	wl := testWorkload(t)
	p := cellParams()
	want, err := RunOne(wl, core.Unsafe, pipeline.Spectre, core.Ablation{}, p)
	if err != nil {
		t.Fatal(err)
	}
	got, retries, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, p, RunPolicy{})
	if err != nil || retries != 0 {
		t.Fatalf("RunCell: retries=%d err=%v", retries, err)
	}
	if got.Cycles != want.Cycles || got.Committed != want.Committed {
		t.Fatalf("RunCell result %+v != RunOne result %+v", got, want)
	}
}

// A panic on attempt 0 — thrown from the progress check, inside the
// running simulation — is recovered (not propagated, not fatal to the
// caller) and retried; the retry succeeds with the same result a clean
// run produces — failure recovery must not perturb determinism.
func TestRunCellRecoversTransientPanic(t *testing.T) {
	wl := testWorkload(t)
	p := cellParams()
	var events []CellEvent
	panics := 0
	pol := RunPolicy{MaxAttempts: 3, RetryBackoff: time.Millisecond,
		Notify: func(ev CellEvent) { events = append(events, ev) }}
	pol.Abort = func() bool {
		if len(events) == 0 { // attempt 0: nothing has failed yet
			panics++
			panic("cell fault")
		}
		return false
	}
	got, retries, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, p, pol)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
	want, _ := RunOne(wl, core.Unsafe, pipeline.Spectre, core.Ablation{}, cellParams())
	if got.Cycles != want.Cycles {
		t.Fatalf("retried result cycles=%d, clean run cycles=%d", got.Cycles, want.Cycles)
	}
	if len(events) != 2 || events[0].Kind != "panic" || events[1].Kind != "retry" {
		t.Fatalf("events = %+v", events)
	}
	if panics != 1 {
		t.Fatalf("the check hook panicked %d times, want 1", panics)
	}
}

// A permanent panic (every attempt's first progress check panics)
// exhausts retries and surfaces as a typed CellError with an accurate
// attempt count and stack.
func TestRunCellPermanentPanicExhaustsRetries(t *testing.T) {
	wl := testWorkload(t)
	panics := 0
	pol := RunPolicy{MaxAttempts: 3, RetryBackoff: time.Millisecond,
		Abort: func() bool { panics++; panic("cell fault") }}
	_, retries, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.Kind != FailPanic || ce.Attempts != 3 || retries != 2 || panics != 3 {
		t.Fatalf("kind=%s attempts=%d retries=%d panics=%d", ce.Kind, ce.Attempts, retries, panics)
	}
	if ce.Stack == "" {
		t.Fatal("panic CellError has no stack")
	}
	if !ce.transient() {
		t.Fatal("panic should be transient")
	}
}

// A frozen cell (wall time passes, committed count stops advancing) is
// killed by the progress-based stall watchdog, not by a cycle count.
func TestRunCellStallWatchdog(t *testing.T) {
	wl := testWorkload(t)
	freezes := 0
	pol := RunPolicy{StallTimeout: 50 * time.Millisecond, Abort: freezeOnce(400*time.Millisecond, &freezes)}
	_, _, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Kind != FailStall || freezes != 1 {
		t.Fatalf("err = %v after %d freezes, want stall CellError after 1", err, freezes)
	}
	if !errors.Is(err, ErrCellStalled) {
		t.Fatal("stall error does not unwrap to ErrCellStalled")
	}
}

// A cell that exceeds its wall-clock deadline is killed with FailTimeout.
func TestRunCellDeadline(t *testing.T) {
	wl := testWorkload(t)
	freezes := 0
	pol := RunPolicy{CellTimeout: 30 * time.Millisecond, Abort: freezeOnce(120*time.Millisecond, &freezes)}
	_, _, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Kind != FailTimeout || freezes != 1 {
		t.Fatalf("err = %v after %d freezes, want timeout CellError after 1", err, freezes)
	}
}

// A deterministic simulation error is FailExec and is never retried.
func TestRunCellExecErrorNotRetried(t *testing.T) {
	wl := testWorkload(t)
	attempts := 0
	pol := RunPolicy{MaxAttempts: 5, RetryBackoff: time.Millisecond,
		Notify: func(ev CellEvent) { attempts++ }}
	// Functional-warmup restore with a detailed-mode config is a
	// deterministic config error inside RunOne.
	p := cellParams()
	p.Checkpoint = CaptureCheckpoint(wl, 500)
	_, retries, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, p, pol)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Kind != FailExec {
		t.Fatalf("err = %v, want exec CellError", err)
	}
	if retries != 0 || ce.Attempts != 1 {
		t.Fatalf("exec failure retried: retries=%d attempts=%d", retries, ce.Attempts)
	}
}

// Cancellation interrupts a running cell mid-simulation and propagates
// as ctx.Err(), not as a CellError, and is not retried. The first progress
// check cancels, so the next one is inside the same running attempt.
func TestRunCellCancellationMidRun(t *testing.T) {
	wl := testWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polls, events := 0, 0
	pol := RunPolicy{MaxAttempts: 3,
		Abort:  func() bool { polls++; cancel(); return false },
		Notify: func(CellEvent) { events++ }}
	_, retries, err := RunCell(ctx, wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	var ce *CellError
	if errors.As(err, &ce) {
		t.Fatalf("cancellation wrapped in CellError: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls != 1 || retries != 0 || events != 0 {
		t.Fatalf("%d progress checks reached the hook, %d retries, %d events; want 1, 0, 0", polls, retries, events)
	}
}

// Abort (flight abandonment) kills the attempt with ErrCellAbandoned.
func TestRunCellAbort(t *testing.T) {
	wl := testWorkload(t)
	pol := RunPolicy{Abort: func() bool { return true }}
	_, _, err := RunCell(context.Background(), wl, core.Unsafe, pipeline.Spectre,
		core.Ablation{}, cellParams(), pol)
	if !errors.Is(err, ErrCellAbandoned) {
		t.Fatalf("err = %v, want ErrCellAbandoned", err)
	}
}

// Backoff is deterministic per (key, attempt) and doubles with attempts.
func TestBackoffDeterministicWithJitter(t *testing.T) {
	pol := RunPolicy{RetryBackoff: 100 * time.Millisecond}
	k := Key{"mcf_r", core.Hybrid, pipeline.Spectre}
	d1 := pol.backoffFor(k, 1)
	if d1 != pol.backoffFor(k, 1) {
		t.Fatal("backoff not deterministic")
	}
	if d1 < 50*time.Millisecond || d1 >= 150*time.Millisecond {
		t.Fatalf("attempt-1 backoff %v outside [50ms, 150ms)", d1)
	}
	d2 := pol.backoffFor(k, 2)
	if d2 < 100*time.Millisecond || d2 >= 300*time.Millisecond {
		t.Fatalf("attempt-2 backoff %v outside [100ms, 300ms)", d2)
	}
}
