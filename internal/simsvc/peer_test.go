package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs/trace"
)

// newPeerNode starts a full service behind httptest — the stack another
// node's fabric client dials.
func newPeerNode(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newService(t, cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})
	return svc, srv
}

// faultyPeer serves svc behind a fault on every request, counting in *n
// the keys the spoiled requests asked for: "down" hijacks the connection
// and closes it unanswered, "slow" holds the answer for delay, "corrupt"
// flips the middle byte of the body, "cut" sends the status, the sizes
// header and half the body, then closes the connection, "badresult"
// answers each key svc holds with an entry whose checksum is correct but
// whose result is not a core.Result, and "mixed" rotates through down,
// slow, corrupt and a clean answer, one request each, in that order.
func faultyPeer(t *testing.T, svc *Service, fault string, delay time.Duration, n *atomic.Int64) *httptest.Server {
	t.Helper()
	h := svc.Handler()
	var seq atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Read ahead of the handler: only then does the server notice a
		// client that goes away.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		f := fault
		if f == "mixed" {
			f = []string{"down", "slow", "corrupt", ""}[(seq.Add(1)-1)%4]
		}
		if f != "" {
			n.Add(int64(len(strings.Fields(string(body)))))
		}
		switch f {
		case "down":
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		case "slow":
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		case "badresult":
			fabric.ServeLookup(w, r, func(key string) ([]byte, bool) {
				if _, ok := svc.cache.PeekEncoded(key); !ok {
					return nil, false
				}
				raw := []byte(`"not a result"`)
				sum := entrySum(key, raw)
				return cacheEntry{Key: key, Sum: string(sum[:]), Result: raw}.encode(), true
			})
			return
		case "corrupt", "cut":
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			if f == "cut" {
				w.Write(body[:len(body)/2])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler) // the server closes the connection
			}
			if len(body) > 0 {
				body[len(body)/2] ^= 0xff
			}
			w.Write(body)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// countingPeer serves svc, recording the keys of each lookup request.
func countingPeer(t *testing.T, svc *Service) (*httptest.Server, func() [][]string) {
	t.Helper()
	h := svc.Handler()
	var mu sync.Mutex
	var asked [][]string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cache/lookup" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			mu.Lock()
			asked = append(asked, strings.Fields(string(body)))
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, func() [][]string {
		mu.Lock()
		defer mu.Unlock()
		return append([][]string(nil), asked...)
	}
}

// peerErrors returns the details of the peer-error events in s's flight
// recorder.
func peerErrors(s *Service) []string {
	var out []string
	for _, e := range s.flight.Events() {
		if e.Kind == "peer-error" {
			out = append(out, e.Detail)
		}
	}
	return out
}

// TestPeerHitServesSweepWithoutSimulating: node A has run the sweep;
// node B, configured with A as a peer, answers the same sweep entirely
// over the peering fabric — zero local simulations, byte-identical
// export.
func TestPeerHitServesSweepWithoutSimulating(t *testing.T) {
	a, srvA := newPeerNode(t, Config{Workers: 2})
	ja := submitAndWait(t, a, smallReq())

	b := newService(t, Config{Workers: 2, Peers: []string{srvA.URL}, PeerProbeInterval: -1})
	defer b.Shutdown(context.Background())
	jb := submitAndWait(t, b, smallReq())

	if got := metric(t, b, "sdo_peer_hits_total"); got != 4 {
		t.Fatalf("PeerHits = %v, want all 4 cells from the peer", got)
	}
	if got := metric(t, b, "sdo_runs_executed_total"); got != 0 {
		t.Fatalf("RunsExecuted = %v, want 0 (peer answered everything)", got)
	}
	// Each cell is one local miss and one peer hit, never a cache hit.
	wantMetrics(t, b, map[string]float64{"sdo_cache_misses_total": 4, "sdo_cache_hits_total": 0})
	wantDeliveries(t, jb, "  [peer]", 4)
	if got, want := exportBytes(t, jb), exportBytes(t, ja); !bytes.Equal(got, want) {
		t.Fatal("peer-served export differs from the origin node's export")
	}
	// Peer traffic is a peek: A's demand hit/miss counters are untouched.
	if got := metric(t, a, "sdo_cache_hits_total"); got != 0 {
		t.Fatalf("peer lookups skewed A's demand cache hits: %v", got)
	}
	// The fabric surfaces in B's health document.
	h := b.Health()
	if len(h.Peers) != 1 || h.Peers[0].Hits != 4 {
		t.Fatalf("healthz peers = %+v, want A with 4 hits", h.Peers)
	}
}

// TestSlowPeersAreHedged: two peers hold every answer and both are slow,
// so the sweep's lookup asks each key's second-ranked peer after the
// hedge delay. Every cell still comes from a peer, each hedged key counts
// in sdo_peer_hedges_total, and each cell's trace shows a peer-lookup
// phase that hit. A cell whose worker waited for the lookup has that
// wait as its peer_us; the others queued behind those workers meanwhile.
func TestSlowPeersAreHedged(t *testing.T) {
	const delay = 250 * time.Millisecond // well past the hedge delay
	var peers []string
	var slowed atomic.Int64
	for i := 0; i < 2; i++ {
		a := newService(t, Config{Workers: 2})
		t.Cleanup(func() { a.Shutdown(context.Background()) })
		submitAndWait(t, a, smallReq())
		peers = append(peers, faultyPeer(t, a, "slow", delay, &slowed).URL)
	}
	b := newService(t, Config{Workers: 2, Peers: peers, PeerProbeInterval: -1, Trace: true})
	defer b.Shutdown(context.Background())
	j := submitAndWait(t, b, smallReq())

	wantMetrics(t, b, map[string]float64{"sdo_peer_hits_total": 4, "sdo_peer_hedges_total": 4, "sdo_runs_executed_total": 0})
	if n := slowed.Load(); n < 8 {
		t.Errorf("%d key answers slowed, want both peers' for every cell (8)", n)
	}
	waited := 0
	for _, cell := range traceDoc(t, j).Cells {
		ps := findSpans(cell.Spans, trace.PhasePeer)
		if len(ps) != 1 || ps[0].Attrs["hit"] != "true" || ps[0].Attrs["peer"] == "" {
			t.Errorf("cell %s: peer-lookup spans %+v, want one hit naming its peer", cell.Cell, ps)
		}
		at := cell.Attribution
		if at.PeerUS >= delay.Microseconds() {
			waited++
		}
		if us := at.PeerUS + at.QueueUS; us < delay.Microseconds() {
			t.Errorf("cell %s: peer_us %d + queue_us %d, want at least the peers' %v delay", cell.Cell, at.PeerUS, at.QueueUS, delay)
		}
		checkAttributionSums(t, cell)
	}
	if waited == 0 {
		t.Error("no cell's peer_us holds the wait for the lookup")
	}
}

// TestSweepAsksEachPeerOnce: a sweep costs each peer one lookup request
// per round, not one per cell. With both peers holding every result,
// round 0 answers every key: each peer gets at most one request, and
// each key is asked once, of its first-ranked peer.
func TestSweepAsksEachPeerOnce(t *testing.T) {
	req := smallReq()
	req.Models = []string{"spectre", "futuristic"} // 8 cells
	var peers []string
	var asked []func() [][]string
	for i := 0; i < 2; i++ {
		a := newService(t, Config{Workers: 2})
		t.Cleanup(func() { a.Shutdown(context.Background()) })
		submitAndWait(t, a, req)
		srv, reqs := countingPeer(t, a)
		peers, asked = append(peers, srv.URL), append(asked, reqs)
	}
	b := newService(t, Config{Workers: 2, Peers: peers, PeerProbeInterval: -1})
	defer b.Shutdown(context.Background())
	_, keys := cellKeys(t, b, req)
	submitAndWait(t, b, req)

	wantMetrics(t, b, map[string]float64{"sdo_peer_hits_total": 8, "sdo_peer_misses_total": 0, "sdo_runs_executed_total": 0})
	times := map[string]int{}
	for i, got := range asked {
		reqs := got()
		if len(reqs) > 1 {
			t.Errorf("peer %d got %d lookup requests, want at most one", i, len(reqs))
		}
		for _, r := range reqs {
			for _, k := range r {
				times[k]++
			}
		}
	}
	for _, k := range keys {
		if times[k] != 1 {
			t.Errorf("%s asked %d times, want once", k, times[k])
		}
	}
}

// TestPeerDownFallsBackToLocal: a dead peer costs lookups, never cells —
// the sweep completes by local simulation and health stays ok.
func TestPeerDownFallsBackToLocal(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close() // connection refused from here on

	b := newService(t, Config{Workers: 2, Peers: []string{srv.URL},
		PeerTimeout: 500 * time.Millisecond, PeerProbeInterval: -1})
	defer b.Shutdown(context.Background())
	j := submitAndWait(t, b, smallReq())

	if st := j.Status(); st.Failed != 0 {
		t.Fatalf("dead peer failed %d cells", st.Failed)
	}
	if got := metric(t, b, "sdo_runs_executed_total"); got != 4 {
		t.Fatalf("RunsExecuted = %v, want all 4 locally", got)
	}
	if got := metric(t, b, "sdo_peer_errors_total"); got == 0 {
		t.Fatal("dead peer produced no peer errors")
	}
	// Peer trouble never degrades the node's own health.
	if h := b.Health(); h.Status != "ok" {
		t.Fatalf("health with a dead peer = %q (%v), want ok", h.Status, h.Reasons)
	}
}

// TestPeerFaultInjectionNeverFailsCells: behind a faulty peer — down,
// slow, corrupt, cut mid-body, checksummed results that do not decode,
// or down, slow and corrupt in turn — every cell still completes
// (locally or via a delayed hit), and every export is the one the peer
// produced alone. Each of four sweeps is one lookup request, so "mixed"
// meets every fault, a cut answer is one strike that answers none of the
// request's keys, and a result that does not decode is a miss for its
// cell but no strike: its entry passed verification. Behind a cut peer and a clean
// one, every cell settles once, as a hit from the clean peer. This is
// the -race acceptance scenario for the lookup path.
func TestPeerFaultInjectionNeverFailsCells(t *testing.T) {
	a := newService(t, Config{Workers: 2})
	defer a.Shutdown(context.Background())
	var reqs []harness.Request
	var solo [][]byte
	for i := 0; i < 4; i++ {
		req := smallReq()
		req.MaxInstrs += uint64(100 * i)
		reqs = append(reqs, req)
		solo = append(solo, exportBytes(t, submitAndWait(t, a, req)))
	}
	const cells = 16
	sweeps := func(fault string, b *Service) {
		t.Helper()
		for i, req := range reqs {
			j := submitAndWait(t, b, req)
			if st := j.Status(); st.Failed != 0 {
				t.Errorf("%s: %d cells failed", fault, st.Failed)
			}
			if !bytes.Equal(exportBytes(t, j), solo[i]) {
				t.Errorf("%s: sweep %d's export differs from the peer's own", fault, i)
			}
		}
	}

	for _, fault := range []string{"down", "slow", "corrupt", "cut", "badresult", "mixed"} {
		var spoiled atomic.Int64
		srv := faultyPeer(t, a, fault, 30*time.Millisecond, &spoiled)
		b := newService(t, Config{Workers: 2, Peers: []string{srv.URL},
			PeerTimeout: time.Second, PeerProbeInterval: -1})
		sweeps(fault, b)
		hits, runs := metric(t, b, "sdo_peer_hits_total"), metric(t, b, "sdo_runs_executed_total")
		if hits+runs != cells {
			t.Errorf("%s: cells unaccounted for: %v peer hits + %v local runs", fault, hits, runs)
		}
		// The fault fired: it cost hits where it breaks an answer, and
		// a slow peer still answered every cell.
		if spoiled.Load() == 0 || (fault == "slow") != (hits == cells) {
			t.Errorf("%s: %d key answers spoiled, %v peer hits", fault, spoiled.Load(), hits)
		}
		// A cut lookup request (one per sweep, asking the sweep's
		// cells/len(reqs) keys) is one strike and answers no key.
		if strikes := metric(t, b, "sdo_peer_errors_total"); fault == "cut" &&
			(hits != 0 || int64(strikes)*cells/int64(len(reqs)) != spoiled.Load()) {
			t.Errorf("cut: %v peer hits and %v strikes for %d keys asked, want no hit and a strike per request", hits, strikes, spoiled.Load())
		}
		if strikes := metric(t, b, "sdo_peer_errors_total"); fault == "badresult" && (hits != 0 || strikes != 0) {
			t.Errorf("badresult: %v peer hits and %v strikes, want neither", hits, strikes)
		}
		// Each answer a cell took and could not decode is named, with its
		// peer and key, in /debug/flight.
		if fault == "badresult" {
			rec := httptest.NewRecorder()
			b.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
			var doc struct {
				Events []struct{ Class, Kind, Detail string }
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("flight document: %v", err)
			}
			named := 0
			for _, e := range doc.Events {
				if e.Kind != "peer-undecodable" {
					continue
				}
				named++
				if e.Class != "fault" || !strings.HasPrefix(e.Detail, "peer "+srv.URL+", key ") {
					t.Errorf("badresult: %s event %q does not name the peer and the key", e.Class, e.Detail)
				}
			}
			if undecoded := b.peerUndecoded.Load(); named == 0 || uint64(named) != undecoded {
				t.Errorf("badresult: /debug/flight names %d undecodable answers of %d", named, undecoded)
			}
		}
		b.Shutdown(context.Background())
	}

	var spoiled atomic.Int64
	cut := faultyPeer(t, a, "cut", 0, &spoiled)
	clean := httptest.NewServer(a.Handler())
	defer clean.Close()
	b := newService(t, Config{Workers: 2, Peers: []string{cut.URL, clean.URL},
		PeerTimeout: time.Second, PeerProbeInterval: -1})
	defer b.Shutdown(context.Background())
	sweeps("cut then clean", b)
	wantMetrics(t, b, map[string]float64{"sdo_peer_hits_total": cells, "sdo_runs_executed_total": 0})
}

// TestPeerCorruptResponseCannotPoison: a peer whose answer has one byte
// flipped — inside one entry of the batch — fails that entry's checksum:
// its key alone is a miss, simulated locally, and the peer takes one
// strike; the batch's other entries are hits, and the export is the true
// one.
func TestPeerCorruptResponseCannotPoison(t *testing.T) {
	a := newService(t, Config{Workers: 2})
	defer a.Shutdown(context.Background())
	ja := submitAndWait(t, a, smallReq())

	var spoiled atomic.Int64
	srv := faultyPeer(t, a, "corrupt", 0, &spoiled)
	b := newService(t, Config{Workers: 2, Peers: []string{srv.URL}, PeerProbeInterval: -1})
	defer b.Shutdown(context.Background())
	jb := submitAndWait(t, b, smallReq())
	if errs := peerErrors(b); spoiled.Load() == 0 || len(errs) != 1 || !strings.Contains(errs[0], "corrupt response") {
		t.Fatalf("%d key answers corrupted; peer-error events %q, want one corrupt response", spoiled.Load(), errs)
	}
	wantMetrics(t, b, map[string]float64{"sdo_peer_hits_total": 3, "sdo_peer_errors_total": 1, "sdo_runs_executed_total": 1})
	if got, want := exportBytes(t, jb), exportBytes(t, ja); !bytes.Equal(got, want) {
		t.Fatal("corrupt peer changed the final export")
	}
}

// TestPeerEntryForUnaskedKeyIsRefused: a peer that answers each key with
// a checksum-valid entry for another key is refused entry by entry: no
// hit, every cell simulated locally, and the true export.
func TestPeerEntryForUnaskedKeyIsRefused(t *testing.T) {
	a := newService(t, Config{Workers: 2})
	defer a.Shutdown(context.Background())
	ja := submitAndWait(t, a, smallReq())
	_, keys := cellKeys(t, a, smallReq())
	other := func(key string) string { // the next key of the sweep
		i := slices.Index(keys, key)
		return keys[(i+1)%len(keys)]
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fabric.ServeLookup(w, r, func(key string) ([]byte, bool) { return a.cache.PeekEncoded(other(key)) })
	}))
	defer srv.Close()
	b := newService(t, Config{Workers: 2, Peers: []string{srv.URL}, PeerProbeInterval: -1})
	defer b.Shutdown(context.Background())
	jb := submitAndWait(t, b, smallReq())

	wantMetrics(t, b, map[string]float64{"sdo_peer_hits_total": 0, "sdo_peer_errors_total": 1, "sdo_runs_executed_total": 4})
	if errs := peerErrors(b); len(errs) != 1 || !strings.Contains(errs[0], "key mismatch") {
		t.Errorf("peer-error events %q, want one key mismatch", errs)
	}
	if got, want := exportBytes(t, jb), exportBytes(t, ja); !bytes.Equal(got, want) {
		t.Fatal("entries for other keys changed the final export")
	}
}

// TestDeadPeerDoesNotFloodFlightRecorder: every unanswered probe strikes
// a dead peer and counts in sdo_peer_errors_total, but once its breaker is
// open the strikes add no events, so the peer costs the /debug/flight ring
// one peer-unreachable event, a peer-breaker-open one and at most
// DefaultBreakerOpens peer-error ones; its return is one peer-recovered event.
func TestDeadPeerDoesNotFloodFlightRecorder(t *testing.T) {
	var dead atomic.Bool
	dead.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			<-r.Context().Done() // accepts the connection, never answers
		}
	}))
	defer srv.Close()
	s := newService(t, Config{Workers: 1, Peers: []string{srv.URL},
		PeerTimeout: 20 * time.Millisecond, PeerProbeInterval: 5 * time.Millisecond})
	defer s.Shutdown(context.Background())
	strikes := 4 * float64(fabric.DefaultBreakerOpens)
	pollUntil(t, "probes to strike the dead peer", 10*time.Second, func() bool {
		return metric(t, s, "sdo_peer_errors_total") >= strikes
	})
	kinds := faultEvents(s)
	if kinds["peer-unreachable"] != 1 || kinds["peer-breaker-open"] < 1 || kinds["peer-error"] > fabric.DefaultBreakerOpens {
		t.Errorf("flight ring after %v strikes holds %d peer-unreachable, %d peer-breaker-open and %d peer-error events, want 1, at least 1 and at most %d",
			strikes, kinds["peer-unreachable"], kinds["peer-breaker-open"], kinds["peer-error"], fabric.DefaultBreakerOpens)
	}
	dead.Store(false)
	pollUntil(t, "the revived peer's peer-recovered event", 10*time.Second, func() bool {
		return faultEvents(s)["peer-recovered"] == 1
	})
}

// TestFinishedJobHoldsNoPeerHits: a finished job's peer batch holds no
// answer — neither one its lookup stored for a cell that then joined
// another job's flight, nor one a lookup still under way when the job
// was cancelled brings back. The peer holds its first lookup request
// until released.
func TestFinishedJobHoldsNoPeerHits(t *testing.T) {
	a := newService(t, Config{Workers: 2})
	defer a.Shutdown(context.Background())
	submitAndWait(t, a, smallReq())
	gated := func(t *testing.T) (*Service, <-chan struct{}, chan<- struct{}) {
		asked, release := make(chan struct{}), make(chan struct{})
		var first atomic.Bool
		h := a.Handler()
		gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cache/lookup" && first.CompareAndSwap(false, true) {
				close(asked)
				<-release
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(gate.Close)
		b := newService(t, Config{Workers: 2, Peers: []string{gate.URL}, PeerTimeout: 30 * time.Second, PeerProbeInterval: -1})
		t.Cleanup(func() { b.Shutdown(context.Background()) })
		return b, asked, release
	}
	holdsNone := func(t *testing.T, j *Job) {
		t.Helper()
		j.peers.mu.Lock()
		defer j.peers.mu.Unlock()
		if n := len(j.peers.hits); n != 0 || j.peers.keys != nil {
			t.Errorf("the finished job's batch holds %d hits and %d keys, want none", n, len(j.peers.keys))
		}
	}

	t.Run("cell joined another job's flight", func(t *testing.T) {
		b, asked, release := gated(t)
		one := smallReq()
		one.Workloads, one.Variants = one.Workloads[:1], one.Variants[:1]
		j1, err := b.Submit(one) // its lookup, for the one cell, waits at the peer
		if err != nil {
			t.Fatal(err)
		}
		<-asked
		// The second job's lookup answers all four keys; the shared cell
		// joins the first job's flight and never takes its answer.
		j2, err := b.Submit(smallReq())
		if err != nil {
			t.Fatal(err)
		}
		pollUntil(t, "the second job's lookup, and its shared cell on the first job's flight", 10*time.Second, func() bool {
			return metric(t, b, "sdo_peer_hits_total") == 4 && metric(t, b, "sdo_runs_deduped_total") == 1
		})
		close(release)
		waitJob(t, j1)
		waitJob(t, j2)
		wantMetrics(t, b, map[string]float64{"sdo_peer_hits_total": 5, "sdo_runs_executed_total": 0})
		holdsNone(t, j2)
	})

	t.Run("job cancelled mid-lookup", func(t *testing.T) {
		b, asked, release := gated(t)
		j, err := b.Submit(smallReq())
		if err != nil {
			t.Fatal(err)
		}
		<-asked
		if ok, st := j.TryCancel(); !ok {
			t.Fatalf("cancel: job already %s", st)
		}
		close(release)
		pollUntil(t, "the cancelled job's workers to finish", 10*time.Second, func() bool {
			return metric(t, b, "sdo_inflight_runs") == 0 && metric(t, b, "sdo_queue_depth") == 0
		})
		if got := metric(t, b, "sdo_peer_hits_total"); got != 4 {
			t.Errorf("the lookup found %v of the job's 4 keys, want all", got)
		}
		holdsNone(t, j)
	})
}
