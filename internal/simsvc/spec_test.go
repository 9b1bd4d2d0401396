package simsvc

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/specexec"
)

// specReq is a one-cell sweep for speculation tests, parameterized by
// workload and variant so tests can build distinct-but-related requests.
func specReq(workload, variant string) SweepRequest {
	warmup := uint64(1000)
	return SweepRequest{
		Workloads:    []string{workload},
		Variants:     []string{variant},
		Models:       []string{"spectre"},
		MaxInstrs:    2000,
		WarmupInstrs: &warmup,
	}
}

func pollUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestSpeculationHit is the end-to-end payoff path: a service that has
// seen the pattern A→B pre-executes B's cells after A arrives, and the
// demand submission of B is then served with zero re-simulation.
func TestSpeculationHit(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "history.jsonl")
	reqA := specReq("exchange2_r", "unsafe")
	reqB := specReq("exchange2_r", "hybrid")

	// Teach the pattern: one service sees A then B and journals it.
	s1 := newService(t, Config{Workers: 2, Speculate: true, SpecJournal: journal})
	submitAndWait(t, s1, reqA)
	submitAndWait(t, s1, reqB)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A restarted service (fresh cache, same journal) predicts B from A.
	s2 := newService(t, Config{Workers: 2, Speculate: true, SpecJournal: journal})
	defer s2.Shutdown(context.Background())
	submitAndWait(t, s2, reqA)

	_, cellsB, err := s2.resolve(reqB)
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "speculative pre-execution of B", 30*time.Second, func() bool {
		for _, c := range cellsB {
			key, err := c.CacheKey()
			if err != nil || !s2.cache.Contains(key) {
				return false
			}
		}
		return true
	})
	if got := metric(t, s2, "sdo_spec_cells_preexecuted_total"); got == 0 {
		t.Fatalf("no speculative cells executed: %s", metricLines(s2, "sdo_spec"))
	}
	execBefore := metric(t, s2, "sdo_runs_executed_total")

	j := submitAndWait(t, s2, reqB)
	if got := metric(t, s2, "sdo_runs_executed_total"); got != execBefore {
		t.Errorf("demand B re-simulated %v runs, want 0 (speculation hit)", got-execBefore)
	}
	if st := j.Status(); st.Cached != st.Total {
		t.Errorf("B served %d/%d cells from cache", st.Cached, st.Total)
	}
	wantDeliveries(t, j, "  [cached, speculated]", 1)
	if got := metric(t, s2, "sdo_spec_hits_total"); got == 0 {
		t.Error("speculation hit not credited")
	}
	if gov := s2.SpecStatus().Governor; gov.UsefulCPUSeconds <= 0 {
		t.Errorf("governor credited no useful compute: %+v", gov)
	}
}

// writeJournal hand-writes a predictor journal teaching the transition
// chain docs[0] → docs[1] → …, using the same normalized documents the
// service's own observe path would have produced.
func writeJournal(t *testing.T, s *Service, path string, reqs ...SweepRequest) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, req := range reqs {
		opt, _, err := s.resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(normalizedRequest(opt, req.Ablations))
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(specexec.Submission{Sig: specexec.Signature(raw), Raw: raw}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpeculationCancellation is the squash path: a running speculative
// cell is cancelled the moment a demand submission that does not need it
// arrives, its compute is accounted as waste, and — with a spent budget —
// the governor pins speculation off.
func TestSpeculationCancellation(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "history.jsonl")
	reqA := specReq("exchange2_r", "unsafe")
	reqC := specReq("deepsjeng_r", "unsafe") // the (mis)predicted follow-up
	reqD := specReq("exchange2_r", "hybrid") // what actually arrives

	scratch := newService(t, Config{Workers: 1})
	writeJournal(t, scratch, journal, reqA, reqC)
	if err := scratch.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every cell attempt sleeps 3s before simulating (cancellably), so
	// the speculative run of C is reliably still in flight when D lands.
	// Two workers: the launcher is kicked from the pool worker that
	// finishes A, which still counts as busy until it returns, so a
	// one-worker pool sees no idle slot whenever the launcher wins that
	// race (and nothing re-kicks it until the next job finishes).
	inj := faults.New(faults.Config{Seed: 1, SlowProb: 1, SlowDelay: 3 * time.Second})
	s := newService(t, Config{
		Workers: 2, Speculate: true, SpecJournal: journal,
		SpecBudget: time.Nanosecond, // any waste exhausts the budget
		Faults:     inj,
	})
	defer s.Shutdown(context.Background())

	submitAndWait(t, s, reqA)
	pollUntil(t, "a speculative flight to start", 30*time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, f := range s.inflight {
			if f.spec {
				return true
			}
		}
		return false
	})

	// D needs none of C's cells: Submit preempts the speculative flight.
	submitAndWait(t, s, reqD)
	pollUntil(t, "the cancellation to be accounted", 10*time.Second, func() bool {
		return metric(t, s, "sdo_spec_cancellations_total") >= 1
	})

	if got := metric(t, s, "sdo_spec_wasted_cpu_seconds_total"); got <= 0 {
		t.Errorf("cancelled speculation accounted no waste: %s", metricLines(s, "sdo_spec"))
	}
	st := s.SpecStatus()
	if st.Governor.State != "exhausted" {
		t.Errorf("governor state = %q, want exhausted (budget %v, wasted %.3fs)",
			st.Governor.State, time.Nanosecond, st.Governor.WastedCPUSeconds)
	}
	// An exhausted governor launches nothing further.
	if got := metric(t, s, "sdo_spec_backlog"); got != 0 {
		t.Errorf("exhausted governor still has backlog %v", got)
	}
}

// TestSpeculationThrottleRecovers exercises the hit-rate throttle at the
// specexec layer as the service wires it: persistent misses throttle,
// later hits recover.
func TestSpeculationThrottle(t *testing.T) {
	gov := specexec.NewGovernor(specexec.GovernorConfig{MinSamples: 4, MinHitRate: 0.5})
	for i := 0; i < 4; i++ {
		gov.Waste(time.Millisecond)
	}
	if gov.Allow() {
		t.Fatal("governor allows speculation at 0% hit-rate")
	}
	if got := gov.State(); got != specexec.StateThrottled {
		t.Fatalf("state = %v, want throttled", got)
	}
	for i := 0; i < 8; i++ {
		gov.Hit(time.Millisecond)
	}
	if !gov.Allow() {
		t.Fatal("governor still throttled after hit-rate recovered")
	}
}

// TestSpeculationOffIsInvisible: without Speculate the service carries no
// speculation state, registers no /spec route and reports zero spec
// metrics — flag-off behavior is byte-identical to the pre-subsystem
// service.
func TestSpeculationOffIsInvisible(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	if s.spec != nil {
		t.Fatal("speculation engine exists without Speculate")
	}
	if st := s.SpecStatus(); st.Enabled {
		t.Fatal("SpecStatus claims enabled")
	}
	submitAndWait(t, s, specReq("exchange2_r", "unsafe"))
	if got := metricLines(s, "sdo_spec"); got != "" {
		t.Fatalf("spec metrics exported with speculation off: %s", got)
	}
}

// TestSpecJournalDefault: with a cache path configured, the journal
// defaults to sitting next to it.
func TestSpecJournalDefault(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache.json")
	s := newService(t, Config{Workers: 1, Speculate: true, CachePath: cache})
	defer s.Shutdown(context.Background())
	if got, want := s.cfg.SpecJournal, cache+".history"; got != want {
		t.Fatalf("SpecJournal = %q, want %q", got, want)
	}
	submitAndWait(t, s, specReq("exchange2_r", "unsafe"))
	if _, err := os.Stat(cache + ".history"); err != nil {
		t.Fatalf("journal not written: %v", err)
	}
}
