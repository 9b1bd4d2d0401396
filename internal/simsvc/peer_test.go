package simsvc

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
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

// faultyPeer serves svc behind a fault on every request, counting the
// requests it spoiled in *n: "down" hijacks the connection and closes it
// unanswered, "slow" holds the answer for delay, "corrupt" flips the
// middle byte of the body, and "mixed" rotates through those three and a
// clean answer.
func faultyPeer(t *testing.T, svc *Service, fault string, delay time.Duration, n *atomic.Int64) *httptest.Server {
	t.Helper()
	h := svc.Handler()
	var seq atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f := fault
		if f == "mixed" {
			f = []string{"down", "slow", "corrupt", ""}[seq.Add(1)%4]
		}
		if f != "" {
			n.Add(1)
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
		case "corrupt":
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if len(body) > 0 {
				body[len(body)/2] ^= 0xff
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
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
// so each lookup asks the second-ranked peer after the hedge delay. Every
// cell still comes from a peer, each hedge counts in
// sdo_peer_hedges_total, and each cell's trace shows the wait as a
// peer-lookup phase that hit.
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
		t.Errorf("%d answers slowed, want both peers' for every cell (8)", n)
	}
	for _, cell := range traceDoc(t, j).Cells {
		ps := findSpans(cell.Spans, trace.PhasePeer)
		if len(ps) != 1 || ps[0].Attrs["hit"] != "true" || ps[0].Attrs["peer"] == "" {
			t.Errorf("cell %s: peer-lookup spans %+v, want one hit naming its peer", cell.Cell, ps)
		}
		if us := cell.Attribution.PeerUS; us < delay.Microseconds() {
			t.Errorf("cell %s: peer_us %d, want at least the peers' %v delay", cell.Cell, us, delay)
		}
		checkAttributionSums(t, cell)
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
// slow, corrupt, or all three in turn — every cell still completes
// (locally or via a delayed hit). This is the -race acceptance scenario
// for the lookup path.
func TestPeerFaultInjectionNeverFailsCells(t *testing.T) {
	a := newService(t, Config{Workers: 2})
	defer a.Shutdown(context.Background())
	submitAndWait(t, a, smallReq())

	for _, fault := range []string{"down", "slow", "corrupt", "mixed"} {
		var spoiled atomic.Int64
		srv := faultyPeer(t, a, fault, 30*time.Millisecond, &spoiled)
		b := newService(t, Config{Workers: 2, Peers: []string{srv.URL},
			PeerTimeout: time.Second, PeerProbeInterval: -1})
		j := submitAndWait(t, b, smallReq())
		if st := j.Status(); st.Failed != 0 {
			t.Errorf("%s: %d cells failed", fault, st.Failed)
		}
		hits, runs := metric(t, b, "sdo_peer_hits_total"), metric(t, b, "sdo_runs_executed_total")
		if hits+runs != 4 {
			t.Errorf("%s: cells unaccounted for: %v peer hits + %v local runs", fault, hits, runs)
		}
		// The fault fired: it cost hits where it breaks an answer, and
		// a slow peer still answered every cell.
		if spoiled.Load() == 0 || (fault == "slow") != (hits == 4) {
			t.Errorf("%s: %d requests spoiled, %v peer hits", fault, spoiled.Load(), hits)
		}
		b.Shutdown(context.Background())
	}
}

// TestPeerCorruptResponseCannotPoison: a peer serving a tampered body
// fails checksum validation inside the fabric; the cell is simulated
// locally and the result is the true one.
func TestPeerCorruptResponseCannotPoison(t *testing.T) {
	a := newService(t, Config{Workers: 2})
	defer a.Shutdown(context.Background())
	ja := submitAndWait(t, a, smallReq())

	var spoiled atomic.Int64
	srv := faultyPeer(t, a, "corrupt", 0, &spoiled)
	b := newService(t, Config{Workers: 2, Peers: []string{srv.URL}, PeerProbeInterval: -1})
	defer b.Shutdown(context.Background())
	jb := submitAndWait(t, b, smallReq())
	if errs := peerErrors(b); spoiled.Load() == 0 || len(errs) == 0 || !strings.Contains(errs[0], "corrupt response") {
		t.Fatalf("%d bodies corrupted; peer-error events %q, want a corrupt response", spoiled.Load(), errs)
	}

	if got := metric(t, b, "sdo_peer_hits_total"); got != 0 {
		t.Fatalf("corrupt peer bodies produced %v hits", got)
	}
	if got := metric(t, b, "sdo_runs_executed_total"); got != 4 {
		t.Fatalf("RunsExecuted = %v, want all 4 locally after corrupt responses", got)
	}
	if got, want := exportBytes(t, jb), exportBytes(t, ja); !bytes.Equal(got, want) {
		t.Fatal("corrupt peer changed the final export")
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
