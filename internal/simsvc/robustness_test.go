package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// cellPolicy is the type of Service.wrapPolicy.
type cellPolicy = func(harness.RunSpec, harness.RunPolicy) harness.RunPolicy

// withAbort returns pol whose Abort first runs hook, then defers to the
// service's own abandonment check.
func withAbort(pol harness.RunPolicy, hook func()) harness.RunPolicy {
	abort := pol.Abort
	pol.Abort = func() bool {
		hook()
		return abort != nil && abort()
	}
	return pol
}

// panicking is a Service.wrapPolicy that makes every run of a cell hit
// selects panic at its first progress check, from inside the running
// simulation: on every attempt, or with firstOnly only on the first. n
// counts the panics.
func panicking(hit func(harness.RunSpec) bool, firstOnly bool, n *atomic.Int64) cellPolicy {
	return func(spec harness.RunSpec, pol harness.RunPolicy) harness.RunPolicy {
		if !hit(spec) {
			return pol
		}
		panicked := false
		return withAbort(pol, func() {
			if !firstOnly || !panicked {
				panicked = true
				n.Add(1)
				panic("cell fault")
			}
		})
	}
}

// parking is a Service.wrapPolicy that parks every run at its first
// progress check — mid-simulation, holding its worker — until release is
// closed; parked receives a value when a run parks.
func parking(parked chan<- struct{}, release <-chan struct{}) cellPolicy {
	return func(_ harness.RunSpec, pol harness.RunPolicy) harness.RunPolicy {
		held := false
		return withAbort(pol, func() {
			if !held {
				held = true
				select {
				case parked <- struct{}{}:
				default: // a run parked before is still unclaimed
				}
				<-release
			}
		})
	}
}

// waitParked waits for a run to park (see parking).
func waitParked(t *testing.T, parked <-chan struct{}) {
	t.Helper()
	select {
	case <-parked:
	case <-time.After(time.Minute):
		t.Fatal("no run reached its first progress check")
	}
}

// longReq is smallReq with a budget long enough for every run to reach
// its progress checks (every 4096 simulated cycles), where the hooks above
// fire.
func longReq() SweepRequest {
	req := smallReq()
	req.MaxInstrs = 30_000
	return req
}

// isVariant selects the cells of one variant.
func isVariant(v core.Variant) func(harness.RunSpec) bool {
	return func(spec harness.RunSpec) bool { return spec.Variant == v }
}

// blockEntry puts a directory where key's entry file belongs in dir:
// reading the entry then fails, and so does the write that renames a new
// file onto it — as it would for root too, unlike a permission bit.
func blockEntry(t *testing.T, dir, key string) {
	t.Helper()
	path := filepath.Join(dir, key+".json")
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
}

// writeCorruptEntry writes key's entry file in dir with a mismatched
// checksum — the moral equivalent of a bit flip on disk.
func writeCorruptEntry(t *testing.T, dir, key string) {
	t.Helper()
	file := fmt.Sprintf(`{"key":%q,"sum":"0000000000000000","result":{"cycles":12345}}`, key)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSweepSurvivesTransientFaults is the headline robustness
// scenario: with both Hybrid cells panicking inside their first
// attempt, a corrupted entry file on disk and a directory blocking
// another cell's entry (its read and its write fail), a sweep still
// completes, reports accurate retry counts, and exports byte-identically
// to a fault-free run — failure recovery must not perturb determinism.
func TestChaosSweepSurvivesTransientFaults(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Config{
		Workers:      2,
		CachePath:    dir,
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
	})
	var panics atomic.Int64
	s.wrapPolicy = panicking(isVariant(core.Hybrid), true, &panics)
	_, keys := cellKeys(t, s, longReq())
	writeCorruptEntry(t, dir, keys[0])
	blockEntry(t, dir, keys[1])

	j := submitAndWait(t, s, longReq())
	st := j.Status()
	if st.Retries != 2 || panics.Load() != 2 {
		t.Fatalf("%d panics, status %+v; want 2 panics, each retried once", panics.Load(), st)
	}
	if st.Failed != 0 || len(st.Failures) != 0 {
		t.Fatalf("chaos sweep has failures: %+v", st)
	}

	if got := metric(t, s, "sdo_cache_corrupt_entries_total"); got != 1 {
		t.Fatalf("corrupt cache entries = %v, want 1", got)
	}
	if metric(t, s, "sdo_cell_panics_total") != 2 || metric(t, s, "sdo_runs_retried_total") != 2 {
		t.Fatalf("fault metrics not counted: %s", metricLines(s, "sdo_"))
	}
	// Each panic and each retry is also one flight-recorder event.
	if ev := faultEvents(s); ev["cell-panic"] != 2 || ev["cell-retry"] != 2 {
		t.Errorf("flight recorder holds %d cell-panic and %d cell-retry events, want 2 and 2",
			ev["cell-panic"], ev["cell-retry"])
	}

	// The export must be byte-identical to a fault-free CLI run of the
	// same options.
	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	var chaos bytes.Buffer
	if err := res.WriteJSON(&chaos); err != nil {
		t.Fatal(err)
	}
	clean, err := harness.Run(j.Options())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := clean.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chaos.Bytes(), want.Bytes()) {
		t.Fatal("chaos export differs from fault-free export")
	}

	// Every entry write happened before its cell was delivered: the
	// blocked one failed (counted, not fatal) ...
	if got := metric(t, s, "sdo_cache_persist_failures_total"); got != 1 {
		t.Fatalf("sdo_cache_persist_failures_total = %v, want 1", got)
	}
	if metric(t, s, "sdo_cache_persistence_enabled") != 1 {
		t.Fatal("one persist failure should not degrade the cache")
	}
	if ev := faultEvents(s); ev["persist-failed"] != 1 || ev["cache-degraded"] != 0 || ev["cache-load-failed"] != 1 {
		t.Errorf("flight recorder: %d persist-failed, %d cache-degraded and %d cache-load-failed events, want 1, 0 and 1",
			ev["persist-failed"], ev["cache-degraded"], ev["cache-load-failed"])
	}
	// ... and the other three left valid files behind.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	reread := diskCache(t, dir)
	valid := 0
	for _, key := range keys {
		if reread.Contains(key) {
			valid++
		}
	}
	if valid != 3 {
		t.Fatalf("%d of 4 cells have a valid file, want 3", valid)
	}
}

// TestChaosPermanentFailureDegrades: a workload that panics on every
// attempt exhausts its retries; the job finishes degraded (not failed),
// itemizes the failed cells, and exports the surviving workloads
// byte-identically to a sweep that never contained the failed one.
func TestChaosPermanentFailureDegrades(t *testing.T) {
	s := newService(t, Config{
		Workers:      2,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
	})
	defer s.Shutdown(context.Background())
	var panics atomic.Int64
	s.wrapPolicy = panicking(func(spec harness.RunSpec) bool { return spec.Workload == "deepsjeng_r" }, false, &panics)

	j, err := s.Submit(longReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	st := j.Status()
	if st.State != JobDegraded {
		t.Fatalf("state = %s, want degraded (%+v)", st.State, st)
	}
	if st.Failed != 2 || len(st.Failures) != 2 || st.Completed != 2 {
		t.Fatalf("degraded status: %+v", st)
	}
	for _, f := range st.Failures {
		if !strings.HasPrefix(f.Cell, "deepsjeng_r/") || f.Kind != "panic" || f.Attempts != 2 {
			t.Fatalf("failure record: %+v", f)
		}
	}
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (one per failed cell)", st.Retries)
	}
	if got := metric(t, s, "sdo_cells_failed_total"); got != 2 {
		t.Fatalf("cells failed = %v, want 2", got)
	}
	// Two attempts per failed cell: each panics, the first is retried.
	if ev := faultEvents(s); panics.Load() != 4 || ev["cell-panic"] != 4 || ev["cell-retry"] != 2 || ev["cell-failed"] != 2 {
		t.Errorf("%d panics; flight recorder: %d cell-panic, %d cell-retry, %d cell-failed events, want 4, 4, 2, 2",
			panics.Load(), ev["cell-panic"], ev["cell-retry"], ev["cell-failed"])
	}

	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	var degraded bytes.Buffer
	if err := res.WriteJSON(&degraded); err != nil {
		t.Fatal(err)
	}
	opt := j.Options()
	var kept []workload.Workload
	for _, wl := range opt.Workloads {
		if wl.Name != "deepsjeng_r" {
			kept = append(kept, wl)
		}
	}
	opt.Workloads = kept
	clean, err := harness.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := clean.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(degraded.Bytes(), want.Bytes()) {
		t.Fatal("degraded export differs from a sweep without the failed workload")
	}
}

// TestKilledCellsAreCountedAndRecorded: a cell frozen mid-run on every
// attempt (its progress check holds the simulator thread) is killed each
// time by the per-cell deadline or by the stall watchdog. Each kill counts in its /metrics family and is one cell-timeout
// or cell-stall event in the flight recorder, beside one cell-retry per
// retry and one cell-failed for the cell.
func TestKilledCellsAreCountedAndRecorded(t *testing.T) {
	for _, tc := range []struct {
		kind, family string
		cfg          Config
	}{
		{"timeout", "sdo_cell_timeouts_total", Config{CellTimeout: 30 * time.Millisecond}},
		{"stall", "sdo_cell_stalls_total", Config{StallTimeout: 50 * time.Millisecond}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers, cfg.MaxAttempts, cfg.RetryBackoff = 1, 2, time.Millisecond
			s := newService(t, cfg)
			defer s.Shutdown(context.Background())
			var freezes atomic.Int64
			s.wrapPolicy = func(_ harness.RunSpec, pol harness.RunPolicy) harness.RunPolicy {
				return withAbort(pol, func() {
					freezes.Add(1)
					time.Sleep(200 * time.Millisecond)
				})
			}
			req := specReq("mcf_r", "unsafe")
			req.MaxInstrs = 30_000 // long enough for the run to reach its progress checks
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, j)
			if st := j.Status(); st.State != JobFailed || len(st.Failures) != 1 || st.Failures[0].Kind != tc.kind {
				t.Fatalf("status %+v, want one %s failure", st, tc.kind)
			}
			if got := metric(t, s, tc.family); got != 2 || freezes.Load() != 2 {
				t.Errorf("%s = %v after %d freezes, want 2 and 2 (one per attempt)", tc.family, got, freezes.Load())
			}
			if ev := faultEvents(s); ev["cell-"+tc.kind] != 2 || ev["cell-retry"] != 1 || ev["cell-failed"] != 1 {
				t.Errorf("flight recorder: %d cell-%s, %d cell-retry, %d cell-failed events, want 2, 1, 1",
					ev["cell-"+tc.kind], tc.kind, ev["cell-retry"], ev["cell-failed"])
			}
		})
	}
}

// TestCacheBitFlippedEntryDropped: flipping a digit inside one entry
// file invalidates its checksum. On a restart that cell is one miss — a
// corrupt one, re-simulated, its file rewritten — never a wrong answer;
// every other cell is a hit and the export does not move.
func TestCacheBitFlippedEntryDropped(t *testing.T) {
	dir := t.TempDir()
	s1 := newService(t, Config{Workers: 2, CachePath: dir})
	_, keys := cellKeys(t, s1, smallReq())
	want := exportBytes(t, submitAndWait(t, s1, smallReq()))
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	good := entryFile(t, dir, keys[0])
	m := regexp.MustCompile(`"Cycles": (\d+)`).FindSubmatchIndex(good)
	if m == nil {
		t.Fatalf("test bug: no Cycles field in:\n%s", good)
	}
	flipped := append([]byte(nil), good...)
	flipped[m[3]-1] = '0' + (flipped[m[3]-1]-'0'+1)%10 // a different last digit
	if err := os.WriteFile(filepath.Join(dir, keys[0]+".json"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newService(t, Config{Workers: 2, CachePath: dir})
	defer s2.Shutdown(context.Background())
	if got := exportBytes(t, submitAndWait(t, s2, smallReq())); !bytes.Equal(got, want) {
		t.Error("export after a bit flip differs from the original")
	}
	for name, want := range map[string]float64{
		"sdo_cache_corrupt_entries_total": 1,
		"sdo_runs_executed_total":         1,
		"sdo_cache_misses_total":          1,
		"sdo_cache_hits_total":            float64(len(keys) - 1),
	} {
		if got := metric(t, s2, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := entryFile(t, dir, keys[0]); !bytes.Equal(got, good) {
		t.Error("the re-simulated cell did not rewrite its file")
	}
}

// TestCacheReadFaultIsOneMiss: an entry whose read fails (here, a
// directory stands where its file was) is one miss and one
// cache-load-failed event: the cell is simulated again, its one failed
// write does not degrade the cache, and the service stays healthy.
func TestCacheReadFaultIsOneMiss(t *testing.T) {
	dir := t.TempDir()
	req := specReq("exchange2_r", "unsafe")
	s1 := newService(t, Config{Workers: 1, CachePath: dir})
	_, keys := cellKeys(t, s1, req)
	submitAndWait(t, s1, req)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	blockEntry(t, dir, keys[0])
	s := newService(t, Config{Workers: 1, CachePath: dir})
	defer s.Shutdown(context.Background())
	submitAndWait(t, s, req)
	if h, m, ex := metric(t, s, "sdo_cache_hits_total"), metric(t, s, "sdo_cache_misses_total"),
		metric(t, s, "sdo_runs_executed_total"); h != 0 || m != 1 || ex != 1 {
		t.Fatalf("hits=%v misses=%v executed=%v, want 0/1/1", h, m, ex)
	}
	if h := s.Health(); h.Status != "ok" {
		t.Fatalf("health = %+v, want ok", h)
	}
	if ev := faultEvents(s); ev["cache-load-failed"] != 1 || ev["persist-failed"] != 1 {
		t.Errorf("flight recorder holds %d cache-load-failed and %d persist-failed events, want 1 and 1",
			ev["cache-load-failed"], ev["persist-failed"])
	}
}

// TestPersistFailuresDegradeToMemoryOnly: three consecutive entry-write
// failures (the cache directory was removed under the service) switch
// the cache to memory-only mode: health reports degraded, later cells
// write nothing even once the directory is back, and sweeps still
// complete.
func TestPersistFailuresDegradeToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Config{Workers: 1, CachePath: dir})
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, s, smallReq()) // four cells: three failed writes, then none
	if fails, enabled := metric(t, s, "sdo_cache_persist_failures_total"), metric(t, s, "sdo_cache_persistence_enabled"); fails != 3 || enabled != 0 {
		t.Fatalf("persist failures=%v persistence enabled=%v, want 3/0 (degraded)", fails, enabled)
	}
	if ev := faultEvents(s); ev["persist-failed"] != 3 || ev["cache-degraded"] != 1 {
		t.Errorf("flight recorder: %d persist-failed and %d cache-degraded events, want 3 and 1",
			ev["persist-failed"], ev["cache-degraded"])
	}
	if h := s.Health(); h.Status != "degraded" || !containsStr(h.Reasons, "cache-degraded") {
		t.Fatalf("health = %+v, want degraded", h)
	}
	// The degraded service still serves sweeps (memory-only) and shuts
	// down cleanly.
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, s, supersetReq())
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("a memory-only cache left %d file(s)", len(ents))
	}
}

// TestJobRegistryBounds: finished jobs are evicted past MaxJobs and after
// JobTTL; running jobs are never evicted.
func TestJobRegistryBounds(t *testing.T) {
	s := newService(t, Config{Workers: 2, MaxJobs: 2})
	defer s.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 3; i++ {
		j := submitAndWait(t, s, smallReq())
		ids = append(ids, j.ID)
	}
	if n := len(s.Jobs()); n > 2 || metric(t, s, "sdo_jobs_tracked") != float64(n) {
		t.Fatalf("registry holds %d jobs (sdo_jobs_tracked %v), bound is 2", n, metric(t, s, "sdo_jobs_tracked"))
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest finished job not evicted")
	}
	if got := metric(t, s, "sdo_jobs_evicted_total"); got == 0 {
		t.Fatal("evictions not counted")
	}
}

func TestJobTTLEviction(t *testing.T) {
	s := newService(t, Config{Workers: 2, JobTTL: 10 * time.Millisecond})
	defer s.Shutdown(context.Background())
	j1 := submitAndWait(t, s, smallReq())
	time.Sleep(30 * time.Millisecond)
	j2 := submitAndWait(t, s, smallReq())
	if _, ok := s.Job(j1.ID); ok {
		t.Fatal("expired job not evicted")
	}
	if _, ok := s.Job(j2.ID); !ok {
		t.Fatal("fresh job evicted")
	}
}

// TestBackpressure: a submission whose cells would overflow the bounded
// queue is rejected with a typed OverloadError carrying a retry hint, and
// nothing is registered.
func TestBackpressure(t *testing.T) {
	s := newService(t, Config{Workers: 1, MaxPendingCells: 2})
	defer s.Shutdown(context.Background())
	_, err := s.Submit(smallReq()) // 4 cells > bound of 2
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if oe.Limit != 2 || oe.RetryAfter < time.Second {
		t.Fatalf("overload error: %+v", oe)
	}
	if len(s.Jobs()) != 0 {
		t.Fatal("rejected submission left a job registered")
	}
	if got := metric(t, s, "sdo_jobs_rejected_total"); got != 1 {
		t.Fatalf("rejections counted = %v, want 1", got)
	}
}

// TestShutdownConcurrentWithSubmit races Submit against Shutdown under
// the race detector: every submission either registers a job that reaches
// a terminal state, or is refused with ErrClosed; nothing leaks.
func TestShutdownConcurrentWithSubmit(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newService(t, Config{Workers: 2})
	var wg sync.WaitGroup
	jobs := make(chan *Job, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := s.Submit(smallReq())
			switch err {
			case nil:
				jobs <- j
			case ErrClosed:
			default:
				t.Error(err)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(jobs)
	for j := range jobs {
		waitJob(t, j)
		if st := j.Status(); !st.State.Terminal() {
			t.Fatalf("job %s not terminal after shutdown: %+v", j.ID, st)
		}
	}
	waitGoroutines(t, base)
}

// TestShutdownConcurrentWithCancel races a mid-sweep cancellation against
// shutdown. The job must end terminal, shutdown must return cleanly, and
// no goroutines (workers, watchdogs, persist timers) may leak.
func TestShutdownConcurrentWithCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newService(t, Config{Workers: 2})
	started := make(chan struct{})
	var once sync.Once
	s.wrapPolicy = func(_ harness.RunSpec, pol harness.RunPolicy) harness.RunPolicy {
		once.Do(func() { close(started) })
		return pol
	}
	j, err := s.Submit(SweepRequest{MaxInstrs: 60_000}) // full sweep, 224 cells
	if err != nil {
		t.Fatal(err)
	}
	<-started // a cell is simulating
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		j.TryCancel()
	}()
	go func() {
		defer wg.Done()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	waitJob(t, j)
	if st := j.Status(); st.State != JobCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	waitGoroutines(t, base)
}

// TestShutdownCompletesInFlightCells: cells already simulating when
// shutdown begins run to completion and their results are persisted, as
// long as their job is still alive (graceful drain, not a hard kill).
func TestShutdownCompletesInFlightCells(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Config{Workers: 4, CachePath: dir})
	j, err := s.Submit(smallReq()) // 4 cells, 4 workers: all start immediately
	if err != nil {
		t.Fatal(err)
	}
	// Wait until every cell is past the cancellation check: either its
	// flight is registered (it will run to completion on the Background
	// context) or it has already delivered.
	for {
		s.mu.Lock()
		inflight := len(s.inflight)
		s.mu.Unlock()
		if inflight+j.Status().Completed >= 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != JobDone || st.Completed != 4 {
		t.Fatalf("in-flight cells not drained: %+v", st)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 4 {
		t.Fatalf("persisted %d results, want 4", len(ents))
	}
}

// TestHTTPRobustness covers the HTTP surface added for fault tolerance:
// healthz states, backpressure's 429 + Retry-After, and idempotent
// DELETE semantics.
func TestHTTPRobustness(t *testing.T) {
	s := newService(t, Config{Workers: 1, MaxPendingCells: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	// Healthy service: 200 with status "ok".
	var h Health
	if err := json.Unmarshal(get(t, ts.URL+"/healthz", 200), &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v err=%v", h, err)
	}

	// Over-bound submission: 429 with a Retry-After hint.
	body := strings.NewReader(`{"workloads":["exchange2_r","deepsjeng_r"],"max_instrs":2000}`)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	// A small-enough sweep is accepted; DELETE is idempotent while the
	// job is cancellable. The budget is large so the job is reliably
	// still running when the DELETE lands (cancellation then aborts the
	// cell long before the budget is reached).
	warmup := uint64(1000)
	st := postSweep(t, ts, SweepRequest{
		Workloads: []string{"exchange2_r"}, Variants: []string{"unsafe"},
		Models: []string{"spectre"}, MaxInstrs: 10_000_000, WarmupInstrs: &warmup,
	})
	del := func(id string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if code := del(st.ID).StatusCode; code != 200 {
		t.Fatalf("DELETE running job: %d, want 200", code)
	}
	if code := del(st.ID).StatusCode; code != 200 {
		t.Fatalf("repeated DELETE of cancelled job: %d, want 200 (idempotent)", code)
	}

	// DELETE of a finished job is a conflict with a clear body.
	st2 := postSweep(t, ts, SweepRequest{
		Workloads: []string{"exchange2_r"}, Variants: []string{"unsafe"},
		Models: []string{"spectre"}, MaxInstrs: 2000, WarmupInstrs: &warmup,
	})
	j2, _ := s.Job(st2.ID)
	waitJob(t, j2)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+st2.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var conflict map[string]string
	json.NewDecoder(resp.Body).Decode(&conflict)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished job: %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(conflict["error"], "already finished") {
		t.Fatalf("409 body: %+v", conflict)
	}

	// Draining service: healthz 503.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := get(t, ts.URL+"/healthz", http.StatusServiceUnavailable)
	if err := json.Unmarshal(b, &h); err != nil || h.Status != "draining" {
		t.Fatalf("draining healthz: %s", b)
	}
}

// TestHealthDegradedReasons: each degradation source surfaces its reason.
func TestHealthDegradedReasons(t *testing.T) {
	s := newService(t, Config{Workers: 1, RetryStormThreshold: 2})
	defer s.Shutdown(context.Background())
	if h := s.Health(); h.Status != "ok" {
		t.Fatalf("fresh service health: %+v", h)
	}
	s.noteRetry()
	s.noteRetry()
	h := s.Health()
	if h.Status != "degraded" || !containsStr(h.Reasons, "retry-storm") {
		t.Fatalf("storm health: %+v", h)
	}
	s.cache.degraded.Store(true)
	if h := s.Health(); !containsStr(h.Reasons, "cache-degraded") {
		t.Fatalf("degraded-cache health: %+v", h)
	}
}

func containsStr(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}
