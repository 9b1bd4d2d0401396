package simsvc

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// supersetReq extends smallReq by two more cells: after smallReq has run,
// exactly two of its four cells are already in the cache.
func supersetReq() harness.Request {
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

// TestResubmitAfterCrash is the crash-recovery guarantee: results are the
// only durable state, so a grid a crash interrupted is resubmitted, and
// the resubmission exports byte-identically to an uninterrupted run while
// re-simulating no persisted cell. Life 1 leaves exactly what a crash
// mid-superset leaves — a cache holding the cells that finished (the
// smallReq subset) — plus a job file an older binary kept beside the
// cache, which life 2 must neither read nor touch.
func TestResubmitAfterCrash(t *testing.T) {
	ref := newService(t, Config{Workers: 2})
	refExport := exportBytes(t, submitAndWait(t, ref, supersetReq()))
	ref.Shutdown(context.Background())

	dir := t.TempDir()
	cachePath := filepath.Join(dir, "cache")
	s1 := newService(t, Config{Workers: 2, CachePath: cachePath})
	submitAndWait(t, s1, smallReq())
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobsPath := cachePath + ".jobs"
	leftover := []byte(`{"v":1,"op":"submit","id":"sweep-2","req":{"workloads":["exchange2_r"]}}` + "\n")
	if err := os.WriteFile(jobsPath, leftover, 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(jobsPath, past, past); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, Config{Workers: 2, CachePath: cachePath})
	if jobs := s2.Jobs(); len(jobs) != 0 {
		t.Fatalf("restart re-admitted %d job(s), want none", len(jobs))
	}
	j := submitAndWait(t, s2, supersetReq())
	if j.ID != "sweep-1" {
		t.Errorf("resubmitted sweep got ID %s, want sweep-1 (IDs are per-process)", j.ID)
	}
	if st := j.Status(); st.Cached != 4 {
		t.Errorf("cached_runs = %d, want the 4 cells life 1 persisted", st.Cached)
	}
	if got := metric(t, s2, "sdo_runs_executed_total"); got != 4 {
		t.Errorf("sdo_runs_executed_total = %v, want only the 4 missing cells", got)
	}
	if got := exportBytes(t, j); !bytes.Equal(got, refExport) {
		t.Errorf("resubmitted export differs from uninterrupted export (%d vs %d bytes)", len(got), len(refExport))
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(jobsPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(jobsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, leftover) || !fi.ModTime().Equal(past) {
		t.Errorf("%s was rewritten (mtime %v, %d bytes); it must be left alone", jobsPath, fi.ModTime(), len(got))
	}
}

// TestFinishedCellsPersistBeforeJobEnds pins what the crash guarantee
// rests on: a finished cell's file is written before anyone sees the
// cell, not when its job ends. The sweep's second workload is parked
// inside its plan build, so the job cannot finish; by then the first
// workload's cells show in the progress stream, and each one that shows
// already has its file — no waiting.
func TestFinishedCellsPersistBeforeJobEnds(t *testing.T) {
	gate := newBuildGate(t)
	gate.pass.Store(1) // the first workload's plan builds; the second parks
	dir := t.TempDir()
	s := newService(t, Config{Workers: 1, CachePath: dir,
		Recorder: obs.NewRecorder(obs.ClassSample, gate)})
	defer s.Shutdown(context.Background())
	defer gate.release() // before Shutdown, which drains the parked cell

	req := sampledReq()
	_, keys := cellKeys(t, s, req) // workload-major: two cells per workload
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	if lines, _ := j.ProgressSince(0); len(lines) != 2 {
		t.Fatalf("progress while the second workload is parked: %q, want the first workload's 2 cells", lines)
	}
	for _, key := range keys[:2] {
		if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
			t.Errorf("a cell in the progress stream has no file: %v", err)
		}
	}
	if st := j.Status(); st.State != JobRunning {
		t.Fatalf("job state = %s while a plan build is parked, want running", st.State)
	}
	gate.release()
	waitJob(t, j)
	if st := j.Status(); st.State != JobDone {
		t.Fatalf("job state = %s, err %q", st.State, st.Error)
	}
}
