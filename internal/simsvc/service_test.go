package simsvc

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/harness"
)

// smallReq is a fast sweep: 2 workloads x 2 variants x 1 model = 4 cells.
func smallReq() harness.Request {
	warmup := uint64(1000)
	return harness.Request{
		Workloads:    []string{"exchange2_r", "deepsjeng_r"},
		Variants:     []string{"unsafe", "hybrid"},
		Models:       []string{"spectre"},
		MaxInstrs:    2000,
		WarmupInstrs: &warmup,
	}
}

// specReq is a one-cell sweep, parameterized by workload and variant so
// tests can build distinct-but-related requests.
func specReq(workload, variant string) harness.Request {
	warmup := uint64(1000)
	return harness.Request{
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

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s timed out: %+v", j.ID, j.Status())
	}
}

func submitAndWait(t *testing.T, s *Service, req harness.Request) *Job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != JobDone {
		t.Fatalf("job %s: state %s, err %q", j.ID, st.State, st.Error)
	}
	return j
}

// TestDeterminismIsCacheSoundness is the core soundness argument: because
// the simulator is deterministic, answering a repeated cell from cache is
// indistinguishable from re-running it. Submit the same sweep twice: the
// second must be answered entirely from cache, and — re-simulating to
// check — the cached counters must be bit-identical to a fresh run's.
func TestDeterminismIsCacheSoundness(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())

	j1 := submitAndWait(t, s, smallReq())
	execAfterFirst := metric(t, s, "sdo_runs_executed_total")
	if execAfterFirst != 4 {
		t.Fatalf("first sweep executed %v runs, want 4", execAfterFirst)
	}
	// The run-duration histogram holds one sample per executed run (a
	// histogram's value is its count), and their wall time adds up.
	if n, secs := metric(t, s, "sdo_run_duration_seconds"), metric(t, s, "sdo_run_seconds_total"); n != 4 || secs <= 0 {
		t.Fatalf("sdo_run_duration_seconds count %v, sdo_run_seconds_total %v; want 4 and > 0", n, secs)
	}

	j2 := submitAndWait(t, s, smallReq())
	if got := metric(t, s, "sdo_runs_executed_total"); got != execAfterFirst {
		t.Fatalf("second sweep ran %v simulations, want 0", got-execAfterFirst)
	}
	if st := j2.Status(); st.Cached != st.Total {
		t.Fatalf("second sweep: %d/%d cells from cache", st.Cached, st.Total)
	}
	wantDeliveries(t, j1, "", 0)
	wantDeliveries(t, j2, "  [cached]", 4)
	if got := metric(t, s, "sdo_cache_hits_total"); got != 4 {
		t.Fatalf("cache hits = %v, want 4", got)
	}

	// Bit-identical ExportRun counters between the two jobs.
	r1, err := j1.Results()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Results()
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := r1.Export(), r2.Export()
	if len(e1.Runs) != len(e2.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(e1.Runs), len(e2.Runs))
	}
	for i := range e1.Runs {
		if !reflect.DeepEqual(e1.Runs[i], e2.Runs[i]) {
			t.Fatalf("run %d differs:\n fresh:  %+v\n cached: %+v", i, e1.Runs[i], e2.Runs[i])
		}
	}
}

// TestExportMatchesHarness: the service's export is byte-identical to
// what the CLI path (harness.Run + WriteJSON) produces for the same
// options — the shared-execution-path guarantee.
func TestExportMatchesHarness(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())
	j := submitAndWait(t, s, smallReq())
	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	var svcBuf bytes.Buffer
	if err := res.WriteJSON(&svcBuf); err != nil {
		t.Fatal(err)
	}

	cli, err := harness.Run(j.Options())
	if err != nil {
		t.Fatal(err)
	}
	var cliBuf bytes.Buffer
	if err := cli.WriteJSON(&cliBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(svcBuf.Bytes(), cliBuf.Bytes()) {
		t.Fatal("service export differs from CLI export for identical options")
	}
}

// TestSingleflight: two identical sweeps submitted concurrently must not
// simulate any cell twice — a cell is either cached or joined in-flight.
func TestSingleflight(t *testing.T) {
	s := newService(t, Config{Workers: 4})
	defer s.Shutdown(context.Background())
	j1, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	waitJob(t, j2)
	if st := j1.Status(); st.State != JobDone {
		t.Fatalf("j1: %+v", st)
	}
	if st := j2.Status(); st.State != JobDone {
		t.Fatalf("j2: %+v", st)
	}
	if got := metric(t, s, "sdo_runs_executed_total"); got != 4 {
		t.Fatalf("executed %v simulations for two identical 4-cell sweeps, want 4", got)
	}
	ra, _ := j1.Results()
	rb, _ := j2.Results()
	for k, r := range ra.Runs {
		if !reflect.DeepEqual(rb.Runs[k], r) {
			t.Fatalf("%v: results differ between deduplicated jobs", k)
		}
	}
}

// waitGoroutines polls until the goroutine count returns to within
// `slack` of base, tolerating runtime bookkeeping noise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancellationNoLeakedGoroutines: cancelling a large sweep mid-flight
// and shutting the service down leaves no goroutines behind.
func TestCancellationNoLeakedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newService(t, Config{Workers: 2})
	req := harness.Request{MaxInstrs: 60_000} // full default sweep: 224 cells
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one cell start, then cancel mid-sweep.
	time.Sleep(50 * time.Millisecond)
	j.TryCancel()
	waitJob(t, j)
	if st := j.Status(); st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if metric(t, s, "sdo_runs_executed_total")+metric(t, s, "sdo_runs_skipped_total")+metric(t, s, "sdo_runs_deduped_total") == 0 {
		t.Fatal("expected some cells to be accounted for")
	}
	waitGoroutines(t, base)
}

// TestShutdownPersistsAndReloadsCache: a restarted service on the same
// cache directory decodes nothing at startup, answers the same sweep
// with zero simulations — every cell a hit read from its file — and
// answers a peer's lookup of each key with its file's bytes.
func TestShutdownPersistsAndReloadsCache(t *testing.T) {
	dir := t.TempDir()

	s1 := newService(t, Config{Workers: 2, CachePath: dir})
	_, keys := cellKeys(t, s1, smallReq())
	j1 := submitAndWait(t, s1, smallReq())
	res1, _ := j1.Results()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, ts := newPeerNode(t, Config{Workers: 2, CachePath: dir})
	if s2.Cache().Len() != 0 {
		t.Fatalf("restarted cache holds %d entries before any lookup, want 0", s2.Cache().Len())
	}
	j2 := submitAndWait(t, s2, smallReq())
	if ex, hits := metric(t, s2, "sdo_runs_executed_total"), metric(t, s2, "sdo_cache_hits_total"); ex != 0 || hits != float64(len(keys)) {
		t.Fatalf("restarted service: %v executed, %v hits, want 0 and %d", ex, hits, len(keys))
	}
	res2, _ := j2.Results()
	for k, r := range res1.Runs {
		if !reflect.DeepEqual(res2.Runs[k], r) {
			t.Fatalf("%v: persisted result differs from live result", k)
		}
	}
	for _, key := range keys {
		if body := entryBody(t, ts.URL, key); !bytes.Equal(body, entryFile(t, dir, key)) {
			t.Errorf("%s: lookup answer differs from the entry file", key)
		}
	}
}

// TestSubmitAfterShutdown: intake is refused once shutdown has begun.
func TestSubmitAfterShutdown(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(smallReq()); err != ErrClosed {
		t.Fatalf("Submit after shutdown: err = %v, want ErrClosed", err)
	}
}

// TestBadRequests: unknown names are rejected up front.
func TestBadRequests(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	for _, req := range []harness.Request{
		{Workloads: []string{"nope_r"}},
		{Variants: []string{"turbo"}},
		{Models: []string{"meltdown"}},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("Submit(%+v) succeeded, want error", req)
		}
	}
}
