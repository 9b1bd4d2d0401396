package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// supersetReq extends smallReq by two more cells: after smallReq has run,
// exactly two of its four cells are already in the cache.
func supersetReq() SweepRequest {
	req := smallReq()
	req.Variants = []string{"unsafe", "hybrid", "static-l1", "static-l2"}
	return req
}

func exportBytes(t *testing.T, j *Job) []byte {
	t.Helper()
	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeAfterCrash is the acceptance scenario for durable resumable
// jobs: a service dies mid-sweep (simulated by its exact on-disk state —
// a journal holding a submit record with no terminal, and a result cache
// holding the cells that finished before the crash). The restarted
// service must re-admit the sweep under its original ID, re-simulate
// only the cells absent from the cache, and produce an export
// byte-identical to an uninterrupted run.
func TestResumeAfterCrash(t *testing.T) {
	// Reference: the same superset sweep, uninterrupted, on a fresh node.
	ref := newService(t, Config{Workers: 2})
	refExport := exportBytes(t, submitAndWait(t, ref, supersetReq()))
	ref.Shutdown(context.Background())

	dir := t.TempDir()
	cachePath := filepath.Join(dir, "cache.json")
	journalPath := filepath.Join(dir, "cache.json.jobs")

	// Life 1: run the 4-cell subset so its results persist, then stop.
	s1 := newService(t, Config{Workers: 2, CachePath: cachePath, JournalPath: journalPath})
	submitAndWait(t, s1, smallReq())
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash mid-sweep-2: the journal carries sweep-2's
	// write-ahead submit record but no terminal — exactly what a SIGKILL
	// between submission and completion leaves behind.
	raw, err := json.Marshal(supersetReq())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(journalLine(t, journalRecord{Op: journalOpSubmit, ID: "sweep-2", Req: raw})); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Life 2: restart over the same cache + journal.
	s2 := newService(t, Config{Workers: 2, CachePath: cachePath, JournalPath: journalPath})
	defer s2.Shutdown(context.Background())

	// The sweep is back under its original ID.
	j, ok := s2.Job("sweep-2")
	if !ok {
		t.Fatal("restart did not re-admit sweep-2")
	}
	// While the replay runs, /healthz reports degraded + the count.
	if h := s2.Health(); h.ResumingJobs > 0 {
		if h.Status != "degraded" {
			t.Errorf("health during resume = %q, want degraded", h.Status)
		}
		found := false
		for _, r := range h.Reasons {
			found = found || r == "resuming"
		}
		if !found {
			t.Errorf("health reasons during resume = %v, want to include resuming", h.Reasons)
		}
	}
	waitJob(t, j)
	st := j.Status()
	if st.State != JobDone {
		t.Fatalf("resumed job state = %s, err %q", st.State, st.Error)
	}
	if !st.Resumed {
		t.Error("resumed job not marked resumed in its status")
	}
	// Only the 4 cells missing from the persisted cache were simulated;
	// the 4 from life 1 were answered by the cache.
	if st.ResumeSkipped != 4 {
		t.Errorf("resume_cells_skipped = %d, want 4", st.ResumeSkipped)
	}
	if got := metric(t, s2, "sdo_resume_jobs_total"); got != 1 {
		t.Errorf("ResumedJobs = %v, want 1", got)
	}
	if got := metric(t, s2, "sdo_resume_cells_skipped_total"); got != 4 {
		t.Errorf("ResumeCellsSkipped = %v, want 4", got)
	}
	if got := metric(t, s2, "sdo_runs_executed_total"); got != 4 {
		t.Errorf("RunsExecuted = %v, want only the 4 missing cells", got)
	}
	if got := metric(t, s2, "sdo_resume_jobs_active"); got != 0 {
		t.Errorf("ResumingJobs after completion = %v, want 0", got)
	}
	if h := s2.Health(); h.Status != "ok" {
		t.Errorf("health after resume = %q (%v), want ok", h.Status, h.Reasons)
	}

	// Determinism makes the interruption invisible: byte-identical export.
	if got := exportBytes(t, j); !bytes.Equal(got, refExport) {
		t.Errorf("resumed export differs from uninterrupted export (%d vs %d bytes)", len(got), len(refExport))
	}

	// A job submitted after the restart must not reuse sweep-2's ID.
	j3, err := s2.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "sweep-3" {
		t.Errorf("post-resume submission got ID %s, want sweep-3", j3.ID)
	}
	waitJob(t, j3)
}

// TestResumeCompletedSweepIsDropped: a journal whose submit has a
// matching terminal record replays nothing — restart after a clean run
// resumes no jobs.
func TestResumeCompletedSweepIsDropped(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2,
		CachePath:   filepath.Join(dir, "cache.json"),
		JournalPath: filepath.Join(dir, "cache.json.jobs")}
	s1 := newService(t, cfg)
	submitAndWait(t, s1, smallReq())
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, cfg)
	defer s2.Shutdown(context.Background())
	if got := metric(t, s2, "sdo_resume_jobs_total"); got != 0 {
		t.Fatalf("clean restart resumed %v jobs, want 0", got)
	}
	if _, ok := s2.Job("sweep-1"); ok {
		t.Fatal("terminal sweep resurrected after restart")
	}
}

// TestResumeBadRequestConvergesToFailed: a journaled request that no
// longer validates must not replay forever — the restart marks it
// terminal so the next restart ignores it.
func TestResumeBadRequestConvergesToFailed(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.jsonl")
	writeJournalFile(t, journalPath,
		journalLine(t, journalRecord{Op: journalOpSubmit, ID: "sweep-1",
			Req: json.RawMessage(`{"workloads":["no_such_workload"]}`)}),
	)
	s1 := newService(t, Config{Workers: 1, JournalPath: journalPath})
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The poison job was journaled terminal: the next life resumes nothing.
	s2 := newService(t, Config{Workers: 1, JournalPath: journalPath})
	defer s2.Shutdown(context.Background())
	if got := metric(t, s2, "sdo_resume_jobs_total"); got != 0 {
		t.Fatalf("poison job replayed again: ResumedJobs = %v", got)
	}
}

// TestJournalDegradedSurfacesInHealth: an unopenable journal path
// degrades to memory-only and reports it, instead of failing startup.
func TestJournalDegradedSurfacesInHealth(t *testing.T) {
	s := newService(t, Config{Workers: 1, JournalPath: t.TempDir()}) // a directory: unopenable
	defer s.Shutdown(context.Background())
	if metric(t, s, "sdo_journal_enabled") != 0 {
		t.Fatal("metrics do not report the degraded journal")
	}
	h := s.Health()
	if h.Status != "degraded" {
		t.Fatalf("health = %q, want degraded", h.Status)
	}
	found := false
	for _, r := range h.Reasons {
		found = found || r == "journal-degraded"
	}
	if !found {
		t.Fatalf("health reasons = %v, want journal-degraded", h.Reasons)
	}
}
