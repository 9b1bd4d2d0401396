package simsvc

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// tierKind drives one artifact kind through its real entry point
// (Service.checkpoint / Service.samplePlan), so the table below pins the
// one resolve ladder for both kinds.
type tierKind struct {
	name string // "ckpt" | "plan": the on-disk extension
	// resolve asks s for the artifact under the kind's fixed key, building
	// from wl on a miss; v is nil when there is none. stale asks under the
	// same key but different build inputs (warmup budget / window), which
	// any stored or peered payload must fail validation against.
	resolve func(s *Service, wl workload.Workload, stale bool) (v any, err error)
	key     string
	// failsWithError: a failed build surfaces as an error (plans) rather
	// than a nil artifact the cell degrades around (checkpoints).
	failsWithError bool
	// maxFile bounds the stored file (0: unbounded). A plan file holds the
	// clustering only; its checkpoints are re-captured on load.
	maxFile int64

	built, hits, diskHits, persisted, peerHits string // metric names
	// work counts the instructions only a build from nothing executes: a
	// checkpoint's warmup, a plan's profiling pass. Re-capturing a loaded
	// plan's checkpoints is not a build and moves neither it nor built.
	work string
}

func tierKinds(t *testing.T) []tierKind {
	t.Helper()
	spec := RunSpec{Workload: "exchange2_r", WarmupInstrs: 1000, MaxInstrs: 2000,
		SampleInterval: 500, SampleMaxK: 4, SampleSeed: 1}
	ckKey, err := spec.CheckpointKey()
	if err != nil {
		t.Fatal(err)
	}
	planKey, err := spec.PlanKey()
	if err != nil {
		t.Fatal(err)
	}
	return []tierKind{
		{
			name: "ckpt", key: ckKey,
			resolve: func(s *Service, wl workload.Workload, stale bool) (any, error) {
				warmup := spec.WarmupInstrs
				if stale {
					warmup++
				}
				if ck := s.checkpoint(nil, ckKey, wl, warmup); ck != nil {
					return ck, nil
				}
				return nil, nil
			},
			built: "sdo_checkpoints_captured_total", work: "sdo_warmup_instrs_simulated_total",
			hits:     "sdo_checkpoint_hits_total",
			diskHits: "sdo_checkpoint_disk_hits_total", persisted: "sdo_checkpoints_persisted_total",
			peerHits: "sdo_cluster_ckpt_peer_hits_total",
		},
		{
			name: "plan", key: planKey, failsWithError: true, maxFile: 16 << 10,
			resolve: func(s *Service, wl workload.Workload, stale bool) (any, error) {
				sp := spec
				if stale {
					sp.MaxInstrs += 500
				}
				plan, err := s.samplePlan(nil, planKey, wl, sp)
				if plan == nil {
					return nil, err
				}
				return plan, err
			},
			built: "sdo_sample_plans_built_total", work: "sdo_profiled_instrs_total",
			hits:     "sdo_sample_plan_hits_total",
			diskHits: "sdo_sample_plan_disk_hits_total", persisted: "sdo_sample_plans_persisted_total",
			peerHits: "sdo_cluster_plan_peer_hits_total",
		},
	}
}

// tierWorkload is the kernel the tiers build from.
func tierWorkload(t *testing.T) workload.Workload {
	t.Helper()
	wl, err := workload.ByName("exchange2_r")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// mustResolve resolves through k and requires an artifact.
func mustResolve(t *testing.T, k tierKind, s *Service, wl workload.Workload, stale bool) any {
	t.Helper()
	v, err := k.resolve(s, wl, stale)
	if v == nil || err != nil {
		t.Fatalf("%s resolve = %v, %v; want an artifact", k.name, v, err)
	}
	return v
}

// wantBuilds asserts how many times s built k's artifact from nothing, by
// the tier's build counter and by the work only a build does.
func wantBuilds(t *testing.T, k tierKind, s *Service, n float64) {
	t.Helper()
	if got := metric(t, s, k.built); got != n {
		t.Errorf("%s = %v, want %v", k.built, got, n)
	}
	if got := metric(t, s, k.work); (got > 0) != (n > 0) {
		t.Errorf("%s = %v after %v builds", k.work, got, n)
	}
}

// wantSameArtifact asserts a loaded artifact equals the built one in
// full — for a plan, the re-captured checkpoints included — and that its
// stored file respects the kind's bound.
func wantSameArtifact(t *testing.T, k tierKind, s *Service, got, built any) {
	t.Helper()
	if !reflect.DeepEqual(got, built) {
		t.Errorf("loaded %s differs from the built one", k.name)
	}
	fi, err := os.Stat(filepath.Join(s.ckstore.dir, artifactName(k.key)+"."+k.name))
	if err != nil {
		t.Fatalf("artifact not in the local store: %v", err)
	}
	if k.maxFile > 0 && fi.Size() > k.maxFile {
		t.Errorf("stored %s is %d bytes, want <= %d", k.name, fi.Size(), k.maxFile)
	}
}

// wantMetrics asserts name/value pairs on s.
func wantMetrics(t *testing.T, s *Service, pairs map[string]float64) {
	t.Helper()
	for name, want := range pairs {
		if got := metric(t, s, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// peerPair is node A (holding the artifact on disk, served over HTTP)
// and node B (empty store, peering with A under bFaults).
func peerPair(t *testing.T, k tierKind, bFaults *faults.Injector) (a, b *Service, built any) {
	t.Helper()
	dir := t.TempDir()
	a = newService(t, Config{Workers: 1, CachePath: filepath.Join(dir, "a.json"), PeerArtifacts: true})
	t.Cleanup(func() { a.Shutdown(context.Background()) })
	built = mustResolve(t, k, a, tierWorkload(t), false)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b = newService(t, Config{Workers: 1, CachePath: filepath.Join(dir, "b.json"), PeerArtifacts: true,
		Peers: []string{srv.URL}, PeerProbeInterval: -1, Faults: bFaults})
	t.Cleanup(func() { b.Shutdown(context.Background()) })
	return a, b, built
}

func TestArtifactTierLadder(t *testing.T) {
	for _, k := range tierKinds(t) {
		k := k
		t.Run(k.name+"/concurrent callers build once", func(t *testing.T) {
			s := newService(t, Config{Workers: 1})
			defer s.Shutdown(context.Background())
			wl := tierWorkload(t)
			const n = 8
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if v, err := k.resolve(s, wl, false); v == nil || err != nil {
						t.Errorf("resolve = %v, %v; want an artifact", v, err)
					}
				}()
			}
			wg.Wait()
			wantBuilds(t, k, s, 1)
			wantMetrics(t, s, map[string]float64{k.hits: n - 1, k.persisted: 0})
		})

		t.Run(k.name+"/disk hit after restart", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.json")
			s1 := newService(t, Config{Workers: 1, CachePath: path})
			wl := tierWorkload(t)
			built := mustResolve(t, k, s1, wl, false)
			wantBuilds(t, k, s1, 1)
			wantMetrics(t, s1, map[string]float64{k.persisted: 1, k.diskHits: 0})
			if err := s1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			s2 := newService(t, Config{Workers: 1, CachePath: path})
			defer s2.Shutdown(context.Background())
			got := mustResolve(t, k, s2, wl, false)
			wantBuilds(t, k, s2, 0)
			wantMetrics(t, s2, map[string]float64{k.diskHits: 1, k.persisted: 0})
			wantSameArtifact(t, k, s2, got, built)
		})

		t.Run(k.name+"/peer hit is persisted locally", func(t *testing.T) {
			_, b, built := peerPair(t, k, nil)
			got := mustResolve(t, k, b, tierWorkload(t), false)
			wantBuilds(t, k, b, 0)
			wantMetrics(t, b, map[string]float64{k.peerHits: 1, k.persisted: 1, "sdo_peer_errors_total": 0})
			wantSameArtifact(t, k, b, got, built)
		})

		t.Run(k.name+"/corrupt disk file degrades to a rebuild", func(t *testing.T) {
			s := newService(t, Config{Workers: 1, CachePath: filepath.Join(t.TempDir(), "cache.json")})
			defer s.Shutdown(context.Background())
			garbage := func(w io.Writer) error { _, err := w.Write([]byte("not a gob")); return err }
			if err := s.ckstore.write(k.name, artifactName(k.key), garbage); err != nil {
				t.Fatal(err)
			}
			mustResolve(t, k, s, tierWorkload(t), false)
			wantBuilds(t, k, s, 1)
			wantMetrics(t, s, map[string]float64{k.diskHits: 0, k.persisted: 1})
		})

		t.Run(k.name+"/stale disk file degrades to a rebuild", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.json")
			s1 := newService(t, Config{Workers: 1, CachePath: path})
			wl := tierWorkload(t)
			mustResolve(t, k, s1, wl, false)
			s1.Shutdown(context.Background())
			s2 := newService(t, Config{Workers: 1, CachePath: path})
			defer s2.Shutdown(context.Background())
			mustResolve(t, k, s2, wl, true)
			wantBuilds(t, k, s2, 1)
			wantMetrics(t, s2, map[string]float64{k.diskHits: 0})
		})

		t.Run(k.name+"/stale peer body degrades to a rebuild", func(t *testing.T) {
			_, b, _ := peerPair(t, k, nil)
			mustResolve(t, k, b, tierWorkload(t), true)
			wantBuilds(t, k, b, 1)
			wantMetrics(t, b, map[string]float64{k.peerHits: 0})
			if got := metric(t, b, "sdo_peer_errors_total"); got == 0 {
				t.Error("stale peer body not counted as a peer failure")
			}
		})

		t.Run(k.name+"/corrupt peer body degrades to a rebuild", func(t *testing.T) {
			inj, err := faults.Parse("seed=7,peer-corrupt=1")
			if err != nil {
				t.Fatal(err)
			}
			_, b, _ := peerPair(t, k, inj)
			mustResolve(t, k, b, tierWorkload(t), false)
			wantBuilds(t, k, b, 1)
			wantMetrics(t, b, map[string]float64{k.peerHits: 0})
		})

		t.Run(k.name+"/panicking build releases waiters and drops the flight", func(t *testing.T) {
			s := newService(t, Config{Workers: 1})
			defer s.Shutdown(context.Background())
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			boom := workload.Workload{Name: "boom", Build: func() (*isa.Program, func(*isa.Memory)) {
				once.Do(func() { close(started) })
				<-release
				panic("injected build panic")
			}}
			check := func(v any, err error) {
				if v != nil || (err != nil) != k.failsWithError {
					t.Errorf("failed build = %v, %v; want no artifact, error=%v", v, err, k.failsWithError)
				}
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); check(k.resolve(s, boom, false)) }()
			<-started
			// The second caller joins the flight (or, if it loses the race
			// to the panic, starts and fails its own): either way it must
			// be released with the same failure, not hang.
			go func() { defer wg.Done(); check(k.resolve(s, boom, false)) }()
			close(release)
			wg.Wait()
			// The failed flight was dropped: the next caller retries and wins.
			mustResolve(t, k, s, tierWorkload(t), false)
			wantBuilds(t, k, s, 1)
			wantMetrics(t, s, map[string]float64{k.hits: 0})
		})
	}
}

// parentPlanFile is planFile as the commits before the plan tier stopped
// storing checkpoints wrote it.
type parentPlanFile struct {
	Warmup, Window uint64
	Cfg            simpoint.Config
	Plan           *simpoint.Plan
	Checkpoints    []*arch.Checkpoint
}

// TestPlanCodecFormat pins what the plan codec accepts: a file in the
// parent's shape (its checkpoints are skipped and re-captured), nothing
// built from other inputs, and no clustering whose boundaries a capture
// pass could not walk.
func TestPlanCodecFormat(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	wl := tierWorkload(t)
	const warmup, window = 1000, 2000
	cfg := simpoint.Config{IntervalInstrs: 500, MaxK: 4, Seed: 1}
	built, err := harness.BuildSamplePlan(wl, warmup, window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Plan.Reps) < 2 {
		t.Fatalf("plan has %d representatives; the reorder case needs 2", len(built.Plan.Reps))
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	parent := encode(&parentPlanFile{Warmup: warmup, Window: window, Cfg: cfg, Plan: built.Plan, Checkpoints: built.Checkpoints})

	got, err := s.planCodec(wl, warmup, window, cfg).decode(bytes.NewReader(parent))
	if err != nil {
		t.Fatalf("parent-format plan rejected: %v", err)
	}
	if !reflect.DeepEqual(got, built) {
		t.Error("parent-format plan decodes to a different plan")
	}
	var own bytes.Buffer
	if err := s.planCodec(wl, warmup, window, cfg).encode(&own, built); err != nil {
		t.Fatal(err)
	}
	if own.Len() > 16<<10 || own.Len() >= len(parent) {
		t.Errorf("encoded plan is %d bytes (parent format: %d)", own.Len(), len(parent))
	}

	for name, c := range map[string]artifactCodec[*harness.SamplePlan]{
		"warmup": s.planCodec(wl, warmup+1, window, cfg),
		"window": s.planCodec(wl, warmup, window+500, cfg),
		"config": s.planCodec(wl, warmup, window, simpoint.Config{IntervalInstrs: 500, MaxK: 4, Seed: 2}),
	} {
		if _, err := c.decode(bytes.NewReader(parent)); err == nil {
			t.Errorf("plan accepted under a different %s", name)
		}
	}

	// Boundaries a capture pass cannot walk are rejected before it starts.
	for name, edit := range map[string]func(*simpoint.Plan){
		"decreasing":              func(p *simpoint.Plan) { p.Reps[0], p.Reps[1] = p.Reps[1], p.Reps[0] },
		"overlapping":             func(p *simpoint.Plan) { p.Reps[1].Start = p.Reps[0].Start },
		"before the window":       func(p *simpoint.Plan) { p.Reps[0].Start = warmup - 1 },
		"beyond the window":       func(p *simpoint.Plan) { p.Reps[len(p.Reps)-1].Start = warmup + window },
		"running past the window": func(p *simpoint.Plan) { p.Reps[len(p.Reps)-1].Len = window + 1 },
		"empty":                   func(p *simpoint.Plan) { p.Reps[0].Len = 0 },
		"no representatives":      func(p *simpoint.Plan) { p.Reps = nil },
	} {
		bad := *built.Plan
		bad.Reps = append([]simpoint.Rep(nil), built.Plan.Reps...)
		edit(&bad)
		before := metric(t, s, "sdo_checkpoints_captured_total")
		if _, err := s.planCodec(wl, warmup, window, cfg).decode(bytes.NewReader(
			encode(&planFile{Warmup: warmup, Window: window, Cfg: cfg, Plan: &bad}))); err == nil {
			t.Errorf("plan with %s boundaries accepted", name)
		}
		if metric(t, s, "sdo_checkpoints_captured_total") != before {
			t.Errorf("plan with %s boundaries reached the capture pass", name)
		}
	}
}
