package simsvc

import (
	"bytes"
	"context"
	"io"
	"net/http"
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
// records the very result the cache holds, not a copy of it. An export is
// built from copies: writing to one export's runs leaves the next export
// and GET /cache/{key} byte-identical.
func TestCellsShareTheCachedResult(t *testing.T) {
	s, ts := httpService(t)
	req := smallReq()
	specs, keys := cellKeys(t, s, req)
	cacheKey := make(map[harness.Key]string, len(specs))
	for i, spec := range specs {
		cacheKey[spec.Key()] = keys[i]
	}
	cold := submitAndWait(t, s, req)
	warm := submitAndWait(t, s, req)
	for _, tc := range []struct {
		j    *Job
		note string
	}{{cold, ""}, {warm, "  [cached]"}} {
		tc.j.mu.Lock()
		cells := tc.j.cells
		tc.j.mu.Unlock()
		if len(cells) != len(keys) {
			t.Fatalf("%s: %d finished-cell records for %d cells", tc.j.ID, len(cells), len(keys))
		}
		for _, c := range cells {
			key, named := cacheKey[c.key]
			shared, ok := s.cache.Get(key)
			if !named || c.note != tc.note || !ok || c.res != shared {
				t.Errorf("%s: record %+v, want a cell's key, note %q and the cache's copy %p",
					tc.j.ID, c, tc.note, shared)
			}
		}
	}

	bodies := func() [][]byte {
		var out [][]byte
		for _, key := range keys {
			out = append(out, get(t, ts.URL+"/cache/"+key, 200))
		}
		return out
	}
	wire := bodies()
	export := exportBytes(t, warm)
	res, err := warm.Results()
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res.Runs {
		r.Cycles, r.L1DHits = 1, 2
		res.Runs[k] = r
	}
	if got := exportBytes(t, warm); !bytes.Equal(got, export) {
		t.Error("writing to one export's runs changed the next export")
	}
	for i, b := range bodies() {
		if !bytes.Equal(b, wire[i]) {
			t.Errorf("GET /cache/%s changed after an export was written to", keys[i])
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
// 2-core reference box; one shared result and one completion record per
// cell read 159 B.
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
	const bound = 400
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
// with their exports, peer GET /cache/{key} reads, a peer node's sweep
// served from those reads, and reads of the entry files. Every export,
// every wire body and every file must stay byte-identical to the first.
func TestConcurrentWarmReadersShareOneCache(t *testing.T) {
	dir := t.TempDir()
	s, srv := newPeerNode(t, Config{Workers: 2, CachePath: dir})
	req := smallReq()
	_, keys := cellKeys(t, s, req)
	export := exportBytes(t, submitAndWait(t, s, req))
	wire := make(map[string][]byte)
	for _, key := range keys {
		wire[key] = get(t, srv.URL+"/cache/"+key, 200)
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
		for _, key := range keys {
			resp, err := http.Get(srv.URL + "/cache/" + key)
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !bytes.Equal(body, wire[key]) {
				t.Errorf("GET /cache/%s body changed under concurrent readers", key)
			}
		}
	})
	run(10, func() {
		for _, key := range keys {
			b, err := os.ReadFile(filepath.Join(dir, key+".json"))
			if err != nil || !bytes.Equal(b, wire[key]) {
				t.Errorf("%s: entry file differs from its GET /cache body (err %v)", key, err)
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
