package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

func httpService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := newService(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func postSweep(t *testing.T, ts *httptest.Server, req SweepRequest) Status {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /sweeps: %d: %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %d (want %d): %s", url, resp.StatusCode, wantCode, b)
	}
	return b
}

func TestHTTPEndToEnd(t *testing.T) {
	s, ts := httpService(t)

	if got := string(get(t, ts.URL+"/healthz", 200)); !strings.Contains(got, "ok") {
		t.Fatalf("healthz: %q", got)
	}

	st := postSweep(t, ts, smallReq())
	if st.Total != 4 {
		t.Fatalf("submitted sweep has %d cells, want 4", st.Total)
	}

	// Export blocks until the job completes, then returns the full
	// harness document.
	exp1 := get(t, fmt.Sprintf("%s/sweeps/%s/export", ts.URL, st.ID), 200)
	var doc struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(exp1, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if len(doc.Runs) != 4 {
		t.Fatalf("export has %d runs, want 4", len(doc.Runs))
	}

	// Status is now done; progress replays one line per run plus the
	// trailer.
	var done Status
	json.Unmarshal(get(t, fmt.Sprintf("%s/sweeps/%s", ts.URL, st.ID), 200), &done)
	if done.State != JobDone || done.Completed != 4 {
		t.Fatalf("status after export: %+v", done)
	}
	prog := string(get(t, fmt.Sprintf("%s/sweeps/%s/progress", ts.URL, st.ID), 200))
	if n := strings.Count(prog, "cycles"); n != 4 {
		t.Fatalf("progress has %d run lines, want 4:\n%s", n, prog)
	}
	if !strings.Contains(prog, "# sweep "+st.ID+": done") {
		t.Fatalf("progress missing trailer:\n%s", prog)
	}

	// A repeated sweep is served entirely from cache and its export is
	// byte-identical.
	st2 := postSweep(t, ts, smallReq())
	exp2 := get(t, fmt.Sprintf("%s/sweeps/%s/export", ts.URL, st2.ID), 200)
	if !bytes.Equal(exp1, exp2) {
		t.Fatal("cached sweep export differs from the original")
	}
	var st2done Status
	json.Unmarshal(get(t, fmt.Sprintf("%s/sweeps/%s", ts.URL, st2.ID), 200), &st2done)
	if st2done.Cached != 4 {
		t.Fatalf("second sweep: %d cells cached, want 4", st2done.Cached)
	}

	// Metrics expose the hit/miss and execution counters.
	// sdo_inflight_runs counts cells on a worker, and a worker settles its
	// cell — waking the export — before its task returns: the gauge reaches
	// 0 just after the export, not with it.
	pollUntil(t, "the workers to go idle", 10*time.Second, func() bool { return metric(t, s, "sdo_inflight_runs") == 0 })
	metrics := string(get(t, ts.URL+"/metrics", 200))
	for _, want := range []string{
		"sdo_cache_hits_total 4",
		"sdo_cache_misses_total 4",
		"sdo_runs_executed_total 4",
		"sdo_queue_depth 0",
		"sdo_inflight_runs 0",
		"sdo_jobs_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// List shows both jobs.
	var list []Status
	json.Unmarshal(get(t, ts.URL+"/sweeps", 200), &list)
	if len(list) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list))
	}

	// Unknown job and bad submissions are client errors.
	get(t, ts.URL+"/sweeps/sweep-999", 404)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json",
		strings.NewReader(`{"workloads":["nope_r"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sweep: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPCancel(t *testing.T) {
	_, ts := httpService(t)
	st := postSweep(t, ts, SweepRequest{MaxInstrs: 60_000}) // big sweep
	delReq, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sweeps/%s", ts.URL, st.ID), nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != JobCancelled {
		t.Fatalf("after DELETE: state %s, want cancelled", got.State)
	}
	// Export of a cancelled sweep reports the conflict.
	get(t, fmt.Sprintf("%s/sweeps/%s/export", ts.URL, st.ID), http.StatusConflict)
}

// TestNonKeysNeverTouchTheDisk: GET /cache/{key} and a stolen cell's
// completion name entry files, and their keys come from outside the
// process. Anything but 64 lowercase hex digits is refused — a 404, an
// error — before a file is opened, even where a checksum-valid entry
// sits at the path the key would name.
func TestNonKeysNeverTouchTheDisk(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "cache")
	s, ts := newPeerNode(t, Config{Workers: 1, CachePath: dir, WorkStealing: true})
	valid := testKey(7)
	for _, tc := range []struct{ name, path, key string }{
		{"traversal", "..%2F..%2Fetc%2Fpasswd", "../../etc/passwd"},
		{"63 digits", valid[1:], valid[1:]},
		{"65 digits", valid + "0", valid + "0"},
		{"upper case", strings.ToUpper(testKey(0xabc)), strings.ToUpper(testKey(0xabc))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(dir, tc.key+".json") // where the key would point
			wire := newEntry(tc.key, core.Result{Stats: pipeline.Stats{Cycles: 7}}).wire
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, wire, 0o644); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cache/"+tc.path, nil))
			if rec.Code != http.StatusNotFound {
				t.Errorf("GET /cache/%s: %d, want 404", tc.path, rec.Code)
			}
			get(t, ts.URL+"/cache/"+tc.path, http.StatusNotFound)

			os.Remove(file)
			if err := s.CompleteSteal(tc.key, wire); err == nil {
				t.Errorf("CompleteSteal(%q) accepted a non-key", tc.key)
			}
			if _, err := os.Stat(file); !os.IsNotExist(err) {
				t.Errorf("CompleteSteal(%q) wrote %s", tc.key, file)
			}
		})
	}
	if c := s.Cache(); c.Len() != 0 || c.corruptTotal() != 0 || faultEvents(s)["cache-load-failed"] != 0 {
		t.Errorf("a non-key reached the cache: %d entries, %d corrupt reads, %d failed reads",
			c.Len(), c.corruptTotal(), faultEvents(s)["cache-load-failed"])
	}
}
