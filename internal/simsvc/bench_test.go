package simsvc

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// benchSweep runs one full sweep on a fresh service and returns once the
// job is terminal.
func benchSweep(b *testing.B, cfg Config) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	j, err := s.Submit(smallReq())
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
}

// BenchmarkSweepColdLocal is the baseline: a 4-cell sweep on a node with
// an empty cache and no peers — every cell simulated locally.
func BenchmarkSweepColdLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSweep(b, Config{Workers: 2})
	}
}

// BenchmarkSweepPeerHit is the same sweep on a cold node whose peer
// already holds every result: all cells are answered over the peering
// fabric, none simulated. The ratio to BenchmarkSweepColdLocal is the
// peering win for warm-fabric sweeps.
func BenchmarkSweepPeerHit(b *testing.B) {
	warm, err := New(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer warm.Shutdown(context.Background())
	j, err := warm.Submit(smallReq())
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	srv := httptest.NewServer(warm.Handler())
	defer srv.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSweep(b, Config{Workers: 2, Peers: []string{srv.URL}, PeerProbeInterval: -1})
	}
}
