package simsvc

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// benchSweep runs one full sweep of req on a fresh service and returns
// once the job is terminal, with the service's count of executed runs.
func benchSweep(b *testing.B, cfg Config, req harness.Request) float64 {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	j, err := s.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		b.Fatalf("sweep timed out: %+v", j.Status())
	}
	if st := j.Status(); st.State != JobDone {
		b.Fatalf("sweep state %s, err %q", st.State, st.Error)
	}
	return metric(b, s, "sdo_runs_executed_total")
}

// BenchmarkSweepColdLocal is the baseline: a 4-cell sweep on a node with
// an empty cache and no peers — every cell simulated locally.
func BenchmarkSweepColdLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweep(b, Config{Workers: 2}, smallReq())
	}
}

// BenchmarkSweepPeerHit is the ledger grid on a fresh node with an empty
// cache directory whose peer already holds every result, as the
// fig6-peerhit benchmark runs it: all cells are answered over the
// peering fabric, none simulated.
func BenchmarkSweepPeerHit(b *testing.B) {
	warm, err := New(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer warm.Shutdown(context.Background())
	j, err := warm.Submit(ledgerReq())
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	srv := httptest.NewServer(warm.Handler())
	defer srv.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{Workers: 2, CachePath: b.TempDir(), Peers: []string{srv.URL}, PeerProbeInterval: -1}
		if runs := benchSweep(b, cfg, ledgerReq()); runs != 0 {
			b.Fatalf("the peering node simulated %v cells, want 0", runs)
		}
	}
}

// BenchmarkDecodeEntry reads smallReq's entry files, one entry per op:
// verify is what a peer lookup does with each answer (envelope and
// checksum), decode what a cache-file read does (verify, then decode the
// result).
func BenchmarkDecodeEntry(b *testing.B) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	j, err := s.Submit(smallReq())
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	_, specs, err := smallReq().Resolve()
	if err != nil {
		b.Fatal(err)
	}
	var keys []string
	var wires [][]byte
	for _, c := range specs {
		key, err := c.CacheKey()
		if err != nil {
			b.Fatal(err)
		}
		wire, ok := s.cache.PeekEncoded(key)
		if !ok {
			b.Fatalf("no entry for %v", c.Key())
		}
		keys, wires = append(keys, key), append(wires, wire)
	}
	for _, bc := range []struct {
		name string
		read func(key string, body []byte) error
	}{
		{"verify", func(key string, body []byte) error { _, err := verifyEntry(key, body); return err }},
		{"decode", func(key string, body []byte) error { _, err := decodeEntry(key, body); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.read(keys[i%len(keys)], wires[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ledgerReq is the benchmark ledger's Figure 6 grid: four kernels, one
// per memory behaviour, × every Table II variant × both attack models at
// the paper-default budget (64 cells).
func ledgerReq() harness.Request {
	return harness.Request{Workloads: []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"}}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkWarmResubmit is the cached path a warm node serves: the ledger
// grid is simulated once (each group of equivalent cells once), then each
// iteration resubmits it, waits for it and writes its export, simulating
// nothing. Every finished job stays in the registry (the default
// -max-jobs bound is far off), so live-B/job is the heap one retained job
// costs.
func BenchmarkWarmResubmit(b *testing.B) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	warm := func() {
		j, err := s.Submit(ledgerReq())
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		res, err := j.Results()
		if err != nil {
			b.Fatal(err)
		}
		res.WriteJSON(io.Discard)
	}
	warm() // simulates the grid
	primed := metric(b, s, "sdo_runs_executed_total")
	before := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
	b.StopTimer()
	if got := metric(b, s, "sdo_runs_executed_total"); got != primed {
		b.Fatalf("the warm loop simulated: %v runs executed, want the priming sweep's %v", got, primed)
	}
	b.ReportMetric(float64(int64(liveHeap())-int64(before))/float64(b.N), "live-B/job")
}

// BenchmarkServeTableIIGrid is the traffic a server runs, over HTTP: the
// Table II grid over every kernel under both attack models with detailed
// warmup, submitted to a node with an empty cache directory and
// exported, then resubmitted and exported from the cache as a warm node
// serves it. Its CPU profile is the sdoserver PGO profile:
//
//	go test -run '^$' -bench ServeTableIIGrid -benchtime 2x -cpuprofile cmd/sdoserver/default.pgo -o /tmp/simsvc.test ./internal/simsvc
//
// (run from the repository root; -cpuprofile is relative to it).
func BenchmarkServeTableIIGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := New(Config{CachePath: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		for sweep := 0; sweep < 50; sweep++ {
			resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader("{}"))
			if err != nil {
				b.Fatal(err)
			}
			var st Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				b.Fatalf("POST /sweeps: %d, %v", resp.StatusCode, err)
			}
			if resp, err = http.Get(srv.URL + "/sweeps/" + st.ID + "/export"); err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		srv.Close()
		s.Shutdown(context.Background())
	}
}
