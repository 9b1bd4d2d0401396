package simsvc

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestDegradedJobRenderingGolden pins what a degraded job renders from
// its cell records: the progress stream, failure lines included, and the
// export of its surviving workload. One worker takes the cells in grid
// order, so the finish order is fixed; deepsjeng_r's Hybrid cells panic.
func TestDegradedJobRenderingGolden(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	var panics atomic.Int64
	s.wrapPolicy = panicking(func(spec harness.RunSpec) bool {
		return spec.Workload == "deepsjeng_r" && spec.Variant == core.Hybrid
	}, &panics)
	req := longReq()
	req.Models = []string{"spectre", "futuristic"}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != JobDegraded {
		t.Fatalf("state %s, want degraded", st.State)
	}
	lines, _ := j.ProgressSince(0)
	checkGolden(t, "degraded_progress.golden", []byte(strings.Join(lines, "\n")+"\n"))
	checkGolden(t, "degraded_export.golden", exportBytes(t, j))
}

// TestAblationJobExportGolden pins an ablation job's export document, as
// GET /sweeps/{id}/export writes it.
func TestAblationJobExportGolden(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())
	req := smallReq()
	req.Ablations = true
	j := submitAndWait(t, s, req)
	ex, err := j.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.IndentedJSON(ex)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation_export.golden", b)
}
