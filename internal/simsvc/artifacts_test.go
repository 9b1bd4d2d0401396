package simsvc

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/workload"
)

// tierKind drives one artifact kind through its real entry point
// (Service.checkpoint / Service.samplePlan), so the table below pins the
// one resolve ladder for both kinds.
type tierKind struct {
	name string // "ckpt" | "plan": the on-disk extension
	// resolve asks s for the artifact under the kind's fixed key, building
	// from wl on a miss. stale asks under the same key but different
	// build inputs (warmup budget / window), which any stored or peered
	// payload must fail validation against.
	resolve func(s *Service, wl workload.Workload, stale bool) (ok bool, err error)
	key     string
	// failsWithError: a failed build surfaces as an error (plans) rather
	// than a nil artifact the cell degrades around (checkpoints).
	failsWithError bool

	built, hits, diskHits, persisted, peerHits string // metric names
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
			resolve: func(s *Service, wl workload.Workload, stale bool) (bool, error) {
				warmup := spec.WarmupInstrs
				if stale {
					warmup++
				}
				return s.checkpoint(nil, ckKey, wl, warmup) != nil, nil
			},
			built: "sdo_checkpoints_captured_total", hits: "sdo_checkpoint_hits_total",
			diskHits: "sdo_checkpoint_disk_hits_total", persisted: "sdo_checkpoints_persisted_total",
			peerHits: "sdo_cluster_ckpt_peer_hits_total",
		},
		{
			name: "plan", key: planKey, failsWithError: true,
			resolve: func(s *Service, wl workload.Workload, stale bool) (bool, error) {
				sp := spec
				if stale {
					sp.MaxInstrs += 500
				}
				plan, err := s.samplePlan(nil, planKey, wl, sp)
				return plan != nil, err
			},
			built: "sdo_sample_plans_built_total", hits: "sdo_sample_plan_hits_total",
			diskHits: "sdo_sample_plan_disk_hits_total", persisted: "sdo_sample_plans_persisted_total",
			peerHits: "sdo_cluster_plan_peer_hits_total",
		},
	}
}

// countedWorkload wraps the real kernel so a test can count how many
// times a tier actually built from it.
func countedWorkload(t *testing.T) (workload.Workload, *atomic.Int64) {
	t.Helper()
	wl, err := workload.ByName("exchange2_r")
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	build := wl.Build
	wl.Build = func() (*isa.Program, func(*isa.Memory)) {
		builds.Add(1)
		return build()
	}
	return wl, &builds
}

// mustResolve resolves through k and requires an artifact.
func mustResolve(t *testing.T, k tierKind, s *Service, wl workload.Workload, stale bool) {
	t.Helper()
	if ok, err := k.resolve(s, wl, stale); !ok || err != nil {
		t.Fatalf("%s resolve = %v, %v; want an artifact", k.name, ok, err)
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
func peerPair(t *testing.T, k tierKind, bFaults *faults.Injector) (a, b *Service) {
	t.Helper()
	dir := t.TempDir()
	a = newService(t, Config{Workers: 1, CachePath: filepath.Join(dir, "a.json"), PeerArtifacts: true})
	t.Cleanup(func() { a.Shutdown(context.Background()) })
	wl, _ := countedWorkload(t)
	mustResolve(t, k, a, wl, false)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	b = newService(t, Config{Workers: 1, CachePath: filepath.Join(dir, "b.json"), PeerArtifacts: true,
		Peers: []string{srv.URL}, PeerProbeInterval: -1, Faults: bFaults})
	t.Cleanup(func() { b.Shutdown(context.Background()) })
	return a, b
}

func TestArtifactTierLadder(t *testing.T) {
	for _, k := range tierKinds(t) {
		k := k
		t.Run(k.name+"/concurrent callers build once", func(t *testing.T) {
			s := newService(t, Config{Workers: 1})
			defer s.Shutdown(context.Background())
			wl, builds := countedWorkload(t)
			const n = 8
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if ok, err := k.resolve(s, wl, false); !ok || err != nil {
						t.Errorf("resolve = %v, %v; want an artifact", ok, err)
					}
				}()
			}
			wg.Wait()
			if got := builds.Load(); got != 1 {
				t.Errorf("%d builds for %d concurrent callers, want 1", got, n)
			}
			wantMetrics(t, s, map[string]float64{k.built: 1, k.hits: n - 1, k.persisted: 0})
		})

		t.Run(k.name+"/disk hit after restart", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.json")
			s1 := newService(t, Config{Workers: 1, CachePath: path})
			wl, builds := countedWorkload(t)
			mustResolve(t, k, s1, wl, false)
			wantMetrics(t, s1, map[string]float64{k.built: 1, k.persisted: 1, k.diskHits: 0})
			if err := s1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			s2 := newService(t, Config{Workers: 1, CachePath: path})
			defer s2.Shutdown(context.Background())
			mustResolve(t, k, s2, wl, false)
			if got := builds.Load(); got != 1 {
				t.Errorf("restarted service rebuilt (%d builds in total), want the disk hit", got)
			}
			wantMetrics(t, s2, map[string]float64{k.built: 0, k.diskHits: 1, k.persisted: 0})
		})

		t.Run(k.name+"/peer hit is persisted locally", func(t *testing.T) {
			_, b := peerPair(t, k, nil)
			wl, builds := countedWorkload(t)
			mustResolve(t, k, b, wl, false)
			if got := builds.Load(); got != 0 {
				t.Errorf("%d local builds despite the peer holding the artifact", got)
			}
			wantMetrics(t, b, map[string]float64{k.built: 0, k.peerHits: 1, k.persisted: 1, "sdo_peer_errors_total": 0})
			if _, err := os.Stat(filepath.Join(b.ckstore.dir, artifactName(k.key)+"."+k.name)); err != nil {
				t.Errorf("peered artifact not in the local store: %v", err)
			}
		})

		t.Run(k.name+"/corrupt disk file degrades to a rebuild", func(t *testing.T) {
			s := newService(t, Config{Workers: 1, CachePath: filepath.Join(t.TempDir(), "cache.json")})
			defer s.Shutdown(context.Background())
			garbage := func(w io.Writer) error { _, err := w.Write([]byte("not a gob")); return err }
			if err := s.ckstore.write(k.name, artifactName(k.key), garbage); err != nil {
				t.Fatal(err)
			}
			wl, builds := countedWorkload(t)
			mustResolve(t, k, s, wl, false)
			if got := builds.Load(); got != 1 {
				t.Errorf("%d builds over a corrupt file, want 1", got)
			}
			wantMetrics(t, s, map[string]float64{k.built: 1, k.diskHits: 0, k.persisted: 1})
		})

		t.Run(k.name+"/stale disk file degrades to a rebuild", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.json")
			s1 := newService(t, Config{Workers: 1, CachePath: path})
			wl, builds := countedWorkload(t)
			mustResolve(t, k, s1, wl, false)
			s1.Shutdown(context.Background())
			s2 := newService(t, Config{Workers: 1, CachePath: path})
			defer s2.Shutdown(context.Background())
			mustResolve(t, k, s2, wl, true)
			if got := builds.Load(); got != 2 {
				t.Errorf("%d builds in total, want the stale file rebuilt (2)", got)
			}
			wantMetrics(t, s2, map[string]float64{k.built: 1, k.diskHits: 0})
		})

		t.Run(k.name+"/stale peer body degrades to a rebuild", func(t *testing.T) {
			_, b := peerPair(t, k, nil)
			wl, builds := countedWorkload(t)
			mustResolve(t, k, b, wl, true)
			if got := builds.Load(); got != 1 {
				t.Errorf("%d local builds, want 1 (peer body built from other inputs)", got)
			}
			wantMetrics(t, b, map[string]float64{k.built: 1, k.peerHits: 0})
			if got := metric(t, b, "sdo_peer_errors_total"); got == 0 {
				t.Error("stale peer body not counted as a peer failure")
			}
		})

		t.Run(k.name+"/corrupt peer body degrades to a rebuild", func(t *testing.T) {
			inj, err := faults.Parse("seed=7,peer-corrupt=1")
			if err != nil {
				t.Fatal(err)
			}
			_, b := peerPair(t, k, inj)
			wl, builds := countedWorkload(t)
			mustResolve(t, k, b, wl, false)
			if got := builds.Load(); got != 1 {
				t.Errorf("%d local builds, want 1 (peer body corrupted in flight)", got)
			}
			wantMetrics(t, b, map[string]float64{k.built: 1, k.peerHits: 0})
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
			check := func(ok bool, err error) {
				if ok || (err != nil) != k.failsWithError {
					t.Errorf("failed build = %v, %v; want no artifact, error=%v", ok, err, k.failsWithError)
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
			wl, builds := countedWorkload(t)
			mustResolve(t, k, s, wl, false)
			if got := builds.Load(); got != 1 {
				t.Errorf("%d builds after the failed flight, want a fresh one", got)
			}
			wantMetrics(t, s, map[string]float64{k.built: 1, k.hits: 0})
		})
	}
}
