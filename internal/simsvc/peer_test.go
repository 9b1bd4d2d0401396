package simsvc

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
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
	var peers []string
	for i := 0; i < 2; i++ {
		a, srv := newPeerNode(t, Config{Workers: 2})
		submitAndWait(t, a, smallReq())
		peers = append(peers, srv.URL)
	}
	const delay = 250 * time.Millisecond // well past the hedge delay
	inj, err := faults.Parse("seed=1,peer-slow=1,peer-slow-delay=" + delay.String())
	if err != nil {
		t.Fatal(err)
	}
	b := newService(t, Config{Workers: 2, Peers: peers, PeerProbeInterval: -1, Faults: inj, Trace: true})
	defer b.Shutdown(context.Background())
	j := submitAndWait(t, b, smallReq())

	wantMetrics(t, b, map[string]float64{"sdo_peer_hits_total": 4, "sdo_peer_hedges_total": 4, "sdo_runs_executed_total": 0})
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

// TestPeerFaultInjectionNeverFailsCells: under injected peer chaos —
// down, slow, corrupt — every cell still completes (locally or via a
// delayed hit). This is the -race acceptance scenario for the lookup
// path.
func TestPeerFaultInjectionNeverFailsCells(t *testing.T) {
	a, srvA := newPeerNode(t, Config{Workers: 2})
	submitAndWait(t, a, smallReq())

	for _, spec := range []string{
		"seed=11,peer-err=1",
		"seed=11,peer-slow=1,peer-slow-delay=30ms",
		"seed=11,peer-corrupt=1",
		"seed=11,peer-err=0.5,peer-slow=0.5,peer-slow-delay=20ms,peer-corrupt=0.5",
	} {
		inj, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		b := newService(t, Config{Workers: 2, Peers: []string{srvA.URL},
			PeerTimeout: time.Second, PeerProbeInterval: -1, Faults: inj})
		j := submitAndWait(t, b, smallReq())
		if st := j.Status(); st.Failed != 0 {
			t.Errorf("%s: %d cells failed", spec, st.Failed)
		}
		if hits, runs := metric(t, b, "sdo_peer_hits_total"), metric(t, b, "sdo_runs_executed_total"); hits+runs < 4 {
			t.Errorf("%s: cells unaccounted for: %v peer hits + %v local runs", spec, hits, runs)
		}
		b.Shutdown(context.Background())
	}
}

// TestPeerCorruptResponseCannotPoison: a peer serving a tampered body
// fails checksum validation inside the fabric; the cell is simulated
// locally and the result is the true one.
func TestPeerCorruptResponseCannotPoison(t *testing.T) {
	a, srvA := newPeerNode(t, Config{Workers: 2})
	ja := submitAndWait(t, a, smallReq())

	inj, err := faults.Parse("seed=5,peer-corrupt=1")
	if err != nil {
		t.Fatal(err)
	}
	b := newService(t, Config{Workers: 2, Peers: []string{srvA.URL},
		PeerProbeInterval: -1, Faults: inj})
	defer b.Shutdown(context.Background())
	jb := submitAndWait(t, b, smallReq())

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
// BreakerThreshold peer-error ones; its return is one peer-recovered event.
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
