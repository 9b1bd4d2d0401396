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
	"repro/internal/harness"
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

func postSweep(t *testing.T, ts *httptest.Server, req harness.Request) Status {
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

// postLookup asks the node at base for keys in one POST /cache/lookup
// and returns the answer's body and its per-key entry sizes.
func postLookup(base string, keys ...string) ([]byte, string, error) {
	resp, err := http.Post(base+"/cache/lookup", "text/plain", strings.NewReader(strings.Join(keys, "\n")))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST /cache/lookup: %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Sdo-Lookup-Sizes"), err
}

// entryBody is the node's one-key lookup answer for a key it holds: the
// bytes of the key's entry file, and nothing else.
func entryBody(t *testing.T, base, key string) []byte {
	t.Helper()
	body, sizes, err := postLookup(base, key)
	if err != nil {
		t.Fatal(err)
	}
	if sizes != fmt.Sprint(len(body)) || len(body) == 0 {
		t.Fatalf("lookup of %s: sizes %q for %d bytes, want one hit", key, sizes, len(body))
	}
	return body
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
	st := postSweep(t, ts, harness.Request{MaxInstrs: 60_000}) // big sweep
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

// TestNonKeysNeverTouchTheDisk: a peer's lookup and a stolen cell's
// completion name entry files, and their keys come from outside the
// process. Anything but 64 lowercase hex digits is refused — a miss, an
// error — before a file is opened, even where a checksum-valid entry
// sits at the path the key would name, and even among other keys of one
// batch.
func TestNonKeysNeverTouchTheDisk(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "cache")
	s, ts := newPeerNode(t, Config{Workers: 1, CachePath: dir, WorkStealing: true})
	valid := testKey(7)
	for _, tc := range []struct{ name, key string }{
		{"traversal", "../../etc/passwd"},
		{"63 digits", valid[1:]},
		{"65 digits", valid + "0"},
		{"upper case", strings.ToUpper(testKey(0xabc))},
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
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cache/lookup", strings.NewReader(tc.key)))
			if rec.Code != http.StatusOK || rec.Header().Get("X-Sdo-Lookup-Sizes") != "0" || rec.Body.Len() != 0 {
				t.Errorf("lookup of %q: %d, sizes %q, %d bytes; want a miss", tc.key, rec.Code, rec.Header().Get("X-Sdo-Lookup-Sizes"), rec.Body.Len())
			}
			if body, sizes, err := postLookup(ts.URL, valid, tc.key, valid); err != nil || sizes != "0,0,0" || len(body) != 0 {
				t.Errorf("batch with %q: sizes %q, %d bytes, %v; want three misses", tc.key, sizes, len(body), err)
			}

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
