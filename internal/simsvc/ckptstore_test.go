package simsvc

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/harness"
)

func TestCheckpointStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	// First server: functional-mode sweep captures one checkpoint per
	// workload and persists each to the store.
	s1 := newService(t, Config{Workers: 2, CachePath: path})
	submitAndWait(t, s1, functionalReq())
	if metric(t, s1, "sdo_checkpoints_captured_total") != 2 || metric(t, s1, "sdo_checkpoints_persisted_total") != 2 || metric(t, s1, "sdo_checkpoint_disk_hits_total") != 0 {
		t.Fatalf("first server checkpoint counters: %s", metricLines(s1, "sdo_checkpoint"))
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(path + ckptDirSuffix)
	if err != nil || len(files) != 2 {
		t.Fatalf("checkpoint dir: %d files, err %v; want 2", len(files), err)
	}

	// Restarted server, different measurement budget: the result cache
	// cannot answer (different cache keys), but warmup state restores
	// from the store — zero warmup instructions are re-simulated.
	s2 := newService(t, Config{Workers: 2, CachePath: path})
	defer s2.Shutdown(context.Background())
	req := functionalReq()
	req.MaxInstrs = 3000
	j := submitAndWait(t, s2, req)
	if metric(t, s2, "sdo_checkpoint_disk_hits_total") != 2 || metric(t, s2, "sdo_checkpoints_captured_total") != 0 {
		t.Errorf("restarted server did not restore from disk: %s", metricLines(s2, "sdo_checkpoint"))
	}
	if got := metric(t, s2, "sdo_warmup_instrs_simulated_total"); got != 0 {
		t.Errorf("restarted server re-simulated %v warmup instructions", got)
	}

	// Disk-restored checkpoints must be invisible in the results: equal
	// to a direct harness run with the same options.
	got, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := s2.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatal("results via disk-restored checkpoints differ from a fresh run")
	}
}

func TestCheckpointStoreRejectsBudgetMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	s1 := newService(t, Config{Workers: 2, CachePath: path})
	submitAndWait(t, s1, functionalReq())
	s1.Shutdown(context.Background())

	// Same workloads, different warmup budget: the checkpoint key embeds
	// the budget, so the persisted files are simply never found and fresh
	// captures happen.
	s2 := newService(t, Config{Workers: 2, CachePath: path})
	defer s2.Shutdown(context.Background())
	req := functionalReq()
	w := uint64(1500)
	req.WarmupInstrs = &w
	submitAndWait(t, s2, req)
	if metric(t, s2, "sdo_checkpoint_disk_hits_total") != 0 || metric(t, s2, "sdo_checkpoints_captured_total") != 2 {
		t.Errorf("budget change reused stale checkpoints: %s", metricLines(s2, "sdo_checkpoint"))
	}
}

func TestCheckpointStoreDisabledWithoutCachePath(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	submitAndWait(t, s, functionalReq())
	if got := metric(t, s, "sdo_checkpoints_persisted_total"); got != 0 {
		t.Errorf("memory-only service persisted %v checkpoints", got)
	}
}

func TestCkptStoreCorruptFileIgnored(t *testing.T) {
	dir := t.TempDir()
	st := newCkptStore(filepath.Join(dir, "cache.json"), nil)
	hash := artifactName("some|ckpt|key")
	garbage := func(w io.Writer) error { _, err := w.Write([]byte("not a gob")); return err }
	if err := st.write("ckpt", hash, garbage); err != nil {
		t.Fatal(err)
	}
	f, ok := st.open("ckpt", hash)
	if !ok {
		t.Fatal("stored file not readable")
	}
	defer f.Close()
	if _, err := ckptCodec(1000).decode(f); err == nil {
		t.Fatal("corrupt checkpoint file decoded")
	}
}
