package simsvc

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestCellsShareTheCachedResult pins the one-copy rule. Every finished
// cell — simulated by the first sweep, a cache hit in the resubmit —
// records, at its position in the grid, the very result the cache holds
// and how it was obtained; the job's Results share those results instead
// of copying them. Rendering an export changes neither the next export
// nor a peer's lookup answer.
func TestCellsShareTheCachedResult(t *testing.T) {
	s, ts := httpService(t)
	req := smallReq()
	specs, keys := cellKeys(t, s, req)
	cold := submitAndWait(t, s, req)
	warm := submitAndWait(t, s, req)
	for _, tc := range []struct {
		j    *Job
		how  provenance
		note string
	}{{cold, simulated, ""}, {warm, fromCache, "  [cached]"}} {
		tc.j.mu.Lock()
		res, how, order := tc.j.res, tc.j.how, tc.j.order
		tc.j.mu.Unlock()
		if len(order) != len(keys) || len(res) != len(keys) {
			t.Fatalf("%s: %d finished of %d records for %d cells", tc.j.ID, len(order), len(res), len(keys))
		}
		results, err := tc.j.Results()
		if err != nil {
			t.Fatal(err)
		}
		for at, spec := range specs {
			shared, ok := s.cache.Get(keys[at])
			if tc.j.keys[at] != spec.Key() || how[at] != tc.how || how[at].note() != tc.note || !ok || res[at] != shared {
				t.Errorf("%s: cell %d is %v, %d (note %q), %p; want %v, %d (note %q) and the cache's copy %p",
					tc.j.ID, at, tc.j.keys[at], how[at], how[at].note(), res[at], spec.Key(), tc.how, tc.note, shared)
			}
			if results.Runs[spec.Key()] != shared {
				t.Errorf("%s: Results holds %p for %v, want the cache's copy %p", tc.j.ID, results.Runs[spec.Key()], spec.Key(), shared)
			}
		}
	}

	bodies := func() [][]byte {
		var out [][]byte
		for _, key := range keys {
			out = append(out, entryBody(t, ts.URL, key))
		}
		return out
	}
	wire := bodies()
	export := exportBytes(t, warm)
	if got := exportBytes(t, warm); !bytes.Equal(got, export) {
		t.Error("rendering an export changed the next export")
	}
	for i, b := range bodies() {
		if !bytes.Equal(b, wire[i]) {
			t.Errorf("lookup answer for %s changed after an export was rendered", keys[i])
		}
	}
}

// tinyGridReq is a 16-cell sweep at a tiny budget: two kernels × every
// Table II variant, one attack model.
func tinyGridReq() harness.Request {
	req := smallReq()
	req.Variants = nil
	return req
}

// TestRetainedHeapPerJob bounds what a finished warm job keeps alive in
// the registry. It resubmits a warm 16-cell sweep, reads the live heap
// after 100 and after 300 resubmits, and divides the growth by the 200
// jobs and their 16 cells. When each job held its own copy of every
// result plus a rendered progress line, this read 756 B per cell on the
// 2-core reference box; one shared result and one 72-byte completion
// record per cell read 148–159 B; a pointer, a provenance byte and a
// 2-byte finish-order entry per cell, keyed by the grid's shared keys,
// read 93 B, most of it the job's own ~1.3 KB spread over 16 cells.
func TestRetainedHeapPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("300 resubmits")
	}
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())
	req := tinyGridReq()
	cells := submitAndWait(t, s, req).Status().Total
	resubmit := func(n int) {
		for i := 0; i < n; i++ {
			submitAndWait(t, s, req)
		}
	}
	resubmit(100)
	at100 := liveHeap()
	resubmit(200)
	perCell := (float64(liveHeap()) - float64(at100)) / 200 / float64(cells)
	t.Logf("retained heap: %.0f B per cell, %.0f B per %d-cell job", perCell, perCell*float64(cells), cells)
	const bound = 130
	if perCell > bound {
		t.Errorf("a retained warm job holds %.0f B per cell, want ≤ %d", perCell, bound)
	}
}

// TestFinishedJobReleasesItsContext: every terminal state cancels the
// job's context, so no finished job stays registered as a child of the
// service's context.
func TestFinishedJobReleasesItsContext(t *testing.T) {
	for _, tc := range []struct {
		name    string
		panicky bool // deepsjeng_r's cells panic
		req     harness.Request
		state   JobState
	}{
		{"done", false, smallReq(), JobDone},
		{"degraded", true, smallReq(), JobDegraded},
		{"failed", true, specReq("deepsjeng_r", "unsafe"), JobFailed},
		{"cancelled", false, harness.Request{MaxInstrs: 60_000}, JobCancelled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newService(t, Config{Workers: 2})
			defer s.Shutdown(context.Background())
			var panics atomic.Int64
			if tc.panicky {
				tc.req.MaxInstrs = longReq().MaxInstrs // reach the progress checks
				s.wrapPolicy = panicking(func(spec harness.RunSpec) bool { return spec.Workload == "deepsjeng_r" }, &panics)
			}
			j, err := s.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if tc.state == JobCancelled {
				j.TryCancel()
			}
			waitJob(t, j)
			if st := j.Status(); st.State != tc.state || tc.panicky != (panics.Load() > 0) {
				t.Fatalf("state %s after %d panics, want %s", st.State, panics.Load(), tc.state)
			}
			if j.ctx.Err() == nil {
				t.Errorf("a %s job's context is still live", tc.state)
			}
		})
	}
}

// TestConcurrentWarmReadersShareOneCache runs, at once and under -race
// in CI, everything that reads a shared cached result: warm resubmits
// with their exports, peer lookups of every key at once, a peer node's
// sweep served from those lookups, and reads of the entry files. Every export,
// every wire body and every file must stay byte-identical to the first.
func TestConcurrentWarmReadersShareOneCache(t *testing.T) {
	dir := t.TempDir()
	s, srv := newPeerNode(t, Config{Workers: 2, CachePath: dir})
	req := smallReq()
	_, keys := cellKeys(t, s, req)
	export := exportBytes(t, submitAndWait(t, s, req))
	wire := make(map[string][]byte)
	for _, key := range keys {
		wire[key] = entryBody(t, srv.URL, key)
	}

	sweep := func(svc *Service) {
		j, err := svc.Submit(req)
		if err != nil {
			t.Error(err)
			return
		}
		select {
		case <-j.Done():
		case <-time.After(time.Minute):
			t.Errorf("%s timed out", j.ID)
			return
		}
		res, err := j.Results()
		if err != nil {
			t.Error(err)
			return
		}
		var buf bytes.Buffer
		res.WriteJSON(&buf)
		if !bytes.Equal(buf.Bytes(), export) {
			t.Errorf("%s: export differs from the first sweep's", j.ID)
		}
	}
	var wg sync.WaitGroup
	run := func(n int, f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				f()
			}
		}()
	}
	for g := 0; g < 3; g++ {
		run(10, func() { sweep(s) })
	}
	run(10, func() {
		body, _, err := postLookup(srv.URL, keys...)
		if err != nil {
			t.Error(err)
			return
		}
		var want []byte
		for _, key := range keys {
			want = append(want, wire[key]...)
		}
		if !bytes.Equal(body, want) {
			t.Error("lookup answer changed under concurrent readers")
		}
	})
	run(10, func() {
		for _, key := range keys {
			b, err := os.ReadFile(filepath.Join(dir, key+".json"))
			if err != nil || !bytes.Equal(b, wire[key]) {
				t.Errorf("%s: entry file differs from its lookup answer (err %v)", key, err)
			}
		}
	})
	peer := newService(t, Config{Workers: 2, Peers: []string{srv.URL}, PeerProbeInterval: -1})
	defer peer.Shutdown(context.Background())
	run(1, func() { sweep(peer) })
	wg.Wait()
	if got := metric(t, peer, "sdo_peer_hits_total"); got != float64(len(keys)) {
		t.Errorf("peer node: %v peer hits, want %d", got, len(keys))
	}

	reread := diskCache(t, dir)
	for _, key := range keys {
		if b, ok := reread.PeekEncoded(key); !ok || !bytes.Equal(b, wire[key]) {
			t.Errorf("%s: a fresh cache over the directory serves different bytes (found %v)", key, ok)
		}
	}
}
