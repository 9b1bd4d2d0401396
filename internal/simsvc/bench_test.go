package simsvc

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/simpoint"
	"repro/internal/workload"
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

// BenchmarkPlanArtifact is the plan tier's layer cost for the benchmark's
// heaviest kernel at the product-default budgets: building a plan from
// nothing, encoding it for the store, and loading it back — decode plus
// the capture pass that stands in for the checkpoints the file does not
// carry. file-bytes is what a disk write or a peer transfer moves.
//
// The ckpt sub-benchmarks are the same question for the functional-warmup
// checkpoint tier, whose files do carry a memory image: capture is what a
// disk or peer hit saves, decode what it costs (DESIGN.md, keep-or-cut
// ledger).
func BenchmarkPlanArtifact(b *testing.B) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	wl, err := workload.ByName("mcf_r")
	if err != nil {
		b.Fatal(err)
	}
	opt := harness.DefaultOptions()
	warmup, window := opt.WarmupInstrs, opt.MaxInstrs
	cfg := harness.TunedSampleConfig(wl.Name, simpoint.Config{Seed: 1})

	sp, err := harness.BuildSamplePlan(wl, warmup, window, cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan := s.planCodec(wl, warmup, window, cfg)
	var planBytes bytes.Buffer
	if err := plan.encode(&planBytes, sp); err != nil {
		b.Fatal(err)
	}
	ck := harness.CaptureCheckpoint(wl, warmup)
	ckpt := ckptCodec(warmup)
	var ckptBytes bytes.Buffer
	if err := ckpt.encode(&ckptBytes, ck); err != nil {
		b.Fatal(err)
	}

	run := func(name string, fileBytes int, op func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fileBytes), "file-bytes")
		})
	}
	run("plan/build", planBytes.Len(), func() error {
		_, err := harness.BuildSamplePlan(wl, warmup, window, cfg)
		return err
	})
	run("plan/encode", planBytes.Len(), func() error { return plan.encode(io.Discard, sp) })
	run("plan/decode+capture", planBytes.Len(), func() error {
		_, err := plan.decode(bytes.NewReader(planBytes.Bytes()))
		return err
	})
	run("ckpt/capture", ckptBytes.Len(), func() error {
		harness.CaptureCheckpoint(wl, warmup)
		return nil
	})
	run("ckpt/encode", ckptBytes.Len(), func() error { return ckpt.encode(io.Discard, ck) })
	run("ckpt/decode", ckptBytes.Len(), func() error {
		_, err := ckpt.decode(bytes.NewReader(ckptBytes.Bytes()))
		return err
	})
}
