package simsvc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// bareJob is a registered-nowhere one-cell job, enough for settle to
// deliver into.
func bareJob(id string) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{ID: id, ctx: ctx, cancel: cancel, state: JobRunning, total: 1,
		runs: make(map[harness.Key]core.Result), done: make(chan struct{})}
}

// TestSettleDeliversExactlyOnce drives the one settlement function with
// every outcome a finished flight can have, over a flight with two
// waiters (the executor's cell and a joiner from another job): each
// waiter gets exactly one delivery, with the outcome's progress-line
// note and cached_runs accounting, and the flight is gone.
func TestSettleDeliversExactlyOnce(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	k := harness.Key{Workload: "exchange2_r", Variant: core.Unsafe, Model: pipeline.Spectre}
	var res core.Result
	res.Cycles, res.Committed = 1234, 2000
	okLine := harness.FormatProgress(k, res)
	cellErr := &harness.CellError{Key: k, Kind: harness.FailPanic, Attempts: 2, Err: errors.New("boom")}

	cases := []struct {
		name    string
		o       settlement
		state   JobState
		line    string // the one progress line ("" for none)
		cached  int
		retries uint64
	}{
		{name: "executed", o: settlement{res: res, status: "done", retries: 1}, state: JobDone, line: okLine, retries: 1},
		{name: "peer hit", o: settlement{res: res, status: "peer", note: "  [peer]", cached: true}, state: JobDone, line: okLine + "  [peer]", cached: 1},
		{name: "stolen hit", o: settlement{res: res, status: "stolen", note: "  [stolen]", cached: true}, state: JobDone, line: okLine + "  [stolen]", cached: 1},
		{name: "permanent failure", o: settlement{err: cellErr, status: "failed", retries: 1}, state: JobFailed,
			line: "exchange2_r    Unsafe      Spectre    FAILED: panic after 2 attempt(s): boom", retries: 1},
		{name: "skipped", o: settlement{err: ErrCancelled, status: "abandoned"}, state: JobCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failedBefore := metric(t, s, "sdo_cells_failed_total")
			jobs := []*Job{bareJob("executor"), bareJob("joiner")}
			f := &flight{}
			for _, j := range jobs {
				f.waiters = append(f.waiters, delivery{job: j, key: k})
			}
			s.mu.Lock()
			s.inflight["key"] = f
			s.mu.Unlock()

			s.settle("key", k, tc.o)
			s.mu.Lock()
			_, still := s.inflight["key"]
			s.mu.Unlock()
			if still {
				t.Error("flight still registered after settlement")
			}
			for _, j := range jobs {
				select {
				case <-j.Done():
				default:
					t.Fatalf("%s: job not finished by its only cell's settlement", j.ID)
				}
				st := j.Status()
				if st.State != tc.state || st.Cached != tc.cached || st.Retries != tc.retries {
					t.Errorf("%s: state=%s cached=%d retries=%d, want %s/%d/%d",
						j.ID, st.State, st.Cached, st.Retries, tc.state, tc.cached, tc.retries)
				}
				lines, _ := j.ProgressSince(0)
				var want []string
				if tc.line != "" {
					want = []string{tc.line}
				}
				if strings.Join(lines, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s: progress lines %q, want %q", j.ID, lines, want)
				}
			}
			wantFailed := failedBefore
			if tc.state == JobFailed {
				wantFailed++ // one failed cell, however many jobs waited on it
			}
			if got := metric(t, s, "sdo_cells_failed_total"); got != wantFailed {
				t.Errorf("sdo_cells_failed_total = %v, want %v", got, wantFailed)
			}
		})
	}
}

// wantDeliveries asserts that j finished with exactly one progress line
// per cell, each carrying note as its suffix ("" means no bracketed note
// at all), and cached cells counted into cached_runs.
func wantDeliveries(t *testing.T, j *Job, note string, cached int) {
	t.Helper()
	st := j.Status()
	lines, _ := j.ProgressSince(0)
	if len(lines) != st.Total {
		t.Errorf("%s: %d progress lines for %d cells, want one each", j.ID, len(lines), st.Total)
	}
	for _, l := range lines {
		if note == "" && strings.HasSuffix(l, "]") || !strings.HasSuffix(l, note) {
			t.Errorf("%s: progress line %q, want note %q", j.ID, l, note)
		}
	}
	if st.Cached != cached {
		t.Errorf("%s: cached_runs = %d, want %d", j.ID, st.Cached, cached)
	}
}

// flightRunning polls until a flight is registered in s.
func flightRunning(t *testing.T, s *Service) {
	t.Helper()
	pollUntil(t, "a flight to start", 30*time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.inflight) > 0
	})
}

// TestJoinerSharesExecutorsFlight: a second job needing a cell that is
// mid-run joins the flight; one simulation, one un-noted delivery each.
func TestJoinerSharesExecutorsFlight(t *testing.T) {
	// Every attempt sleeps before simulating, so the first job's cell is
	// reliably still in flight when the second job's cell looks.
	inj := faults.New(faults.Config{Seed: 1, SlowProb: 1, SlowDelay: 500 * time.Millisecond})
	s := newService(t, Config{Workers: 2, Faults: inj})
	defer s.Shutdown(context.Background())
	req := specReq("exchange2_r", "unsafe")
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	flightRunning(t, s)
	j2 := submitAndWait(t, s, req)
	waitJob(t, j1)
	wantDeliveries(t, j1, "", 0)
	wantDeliveries(t, j2, "", 0)
	wantMetrics(t, s, map[string]float64{"sdo_runs_executed_total": 1, "sdo_runs_deduped_total": 1})
}

// hasSpan reports whether the span tree under n contains a span named name.
func hasSpan(n *trace.Node, name string) bool {
	if n == nil {
		return false
	}
	if n.Name == name {
		return true
	}
	for _, c := range n.Children {
		if hasSpan(c, name) {
			return true
		}
	}
	return false
}

// TestStolenCellDeliveredOnce: the owner's worker reaches a cell a thief
// holds under lease, waits for it, and delivers the thief's result as
// "[stolen]" (cached: the owner did not simulate it).
func TestStolenCellDeliveredOnce(t *testing.T) {
	owner := newService(t, Config{Workers: 1, WorkStealing: true, Trace: true})
	defer owner.Shutdown(context.Background())
	thief := newService(t, Config{Workers: 1})
	defer thief.Shutdown(context.Background())

	// A one-worker owner with a two-cell sweep always has a queued cell
	// to lease out.
	req := specReq("exchange2_r", "unsafe")
	req.Variants = []string{"unsafe", "hybrid"}
	j, err := owner.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	var cells []StolenCell
	pollUntil(t, "a stealable cell", 10*time.Second, func() bool {
		cells = owner.StealCells("thief", 1)
		return len(cells) == 1
	})
	// Wait until the owner's worker is inside the steal-claim wait, so the
	// completion below is what wakes it.
	pollUntil(t, "the owner to wait on the lease", 30*time.Second, func() bool {
		for _, c := range j.Trace().Doc().Cells {
			if hasSpan(c.Spans, trace.PhaseStealClaim) {
				return true
			}
		}
		return false
	})
	run := <-thief.RunStolen(context.Background(), cells[0].Spec)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if err := owner.CompleteSteal(cells[0].Key, run.Wire); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)

	lines, _ := j.ProgressSince(0)
	stolen := 0
	for _, l := range lines {
		if strings.HasSuffix(l, "  [stolen]") {
			stolen++
		}
	}
	if st := j.Status(); len(lines) != 2 || stolen != 1 || st.Cached != 1 || st.State != JobDone {
		t.Errorf("lines=%q state=%s cached=%d; want 2 lines, one [stolen], cached_runs 1", lines, st.State, st.Cached)
	}
	wantMetrics(t, owner, map[string]float64{
		"sdo_runs_executed_total": 1, "sdo_cluster_cells_stolen_total": 1,
		"sdo_cluster_steal_completions_total": 1, "sdo_cluster_lease_expiries_total": 0,
	})
}
