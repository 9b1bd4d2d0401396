package simsvc

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/workload"
)

// tierKind drives one artifact kind through its real entry point
// (Service.checkpoint / Service.samplePlan), so the table below pins the
// one memo for both kinds.
type tierKind struct {
	name string // "ckpt" | "plan"
	// resolve asks s for the artifact under the kind's fixed key, building
	// from wl on a miss; v is nil when there is none.
	resolve func(s *Service, wl workload.Workload) (v any, err error)
	// failedBuildRetried drives s's tier of this kind through a build
	// that returns an error and then one that succeeds, under one key.
	failedBuildRetried func(t *testing.T, s *Service)
	// failsWithError: a failed build surfaces as an error (plans) rather
	// than a nil artifact the cell degrades around (checkpoints).
	failsWithError bool

	built, hits string // metric names
	// work counts the instructions only a build executes: a checkpoint's
	// warmup, a plan's profiling pass.
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
			name: "ckpt",
			resolve: func(s *Service, wl workload.Workload) (any, error) {
				if ck := s.checkpoint(ckKey, wl, spec.WarmupInstrs); ck != nil {
					return ck, nil
				}
				return nil, nil
			},
			failedBuildRetried: func(t *testing.T, s *Service) { failedBuildRetried(t, s.ckpts, &arch.Checkpoint{}) },
			built:              "sdo_checkpoints_captured_total", work: "sdo_warmup_instrs_simulated_total",
			hits: "sdo_checkpoint_hits_total",
		},
		{
			name: "plan", failsWithError: true,
			resolve: func(s *Service, wl workload.Workload) (any, error) {
				plan, err := s.samplePlan(planKey, wl, spec)
				if plan == nil {
					return nil, err
				}
				return plan, err
			},
			failedBuildRetried: func(t *testing.T, s *Service) { failedBuildRetried(t, s.plans, &harness.SamplePlan{}) },
			built:              "sdo_sample_plans_built_total", work: "sdo_profiled_instrs_total",
			hits: "sdo_sample_plan_hits_total",
		},
	}
}

// failedBuildRetried: a build that returns an error fails its caller and
// is not memoised — the next caller builds again, and that one sticks.
func failedBuildRetried[T comparable](t *testing.T, tier *artifactTier[T], good T) {
	t.Helper()
	builds := 0
	build := func(v T, err error) func() (T, error) {
		return func() (T, error) { builds++; return v, err }
	}
	var zero T
	if _, err := tier.resolve("k", build(zero, errors.New("injected build failure"))); err == nil {
		t.Error("failed build returned no error")
	}
	for i := 0; i < 2; i++ {
		if v, err := tier.resolve("k", build(good, nil)); v != good || err != nil {
			t.Errorf("resolve after a failed build = %v, %v; want the rebuilt artifact", v, err)
		}
	}
	if builds != 2 {
		t.Errorf("builds = %d, want 2 (the failure, then one retry that is memoised)", builds)
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
func mustResolve(t *testing.T, k tierKind, s *Service, wl workload.Workload) any {
	t.Helper()
	v, err := k.resolve(s, wl)
	if v == nil || err != nil {
		t.Fatalf("%s resolve = %v, %v; want an artifact", k.name, v, err)
	}
	return v
}

// wantBuilds asserts how many times s built k's artifact, by the tier's
// build counter and by the work only a build does.
func wantBuilds(t *testing.T, k tierKind, s *Service, n float64) {
	t.Helper()
	if got := metric(t, s, k.built); got != n {
		t.Errorf("%s = %v, want %v", k.built, got, n)
	}
	if got := metric(t, s, k.work); (got > 0) != (n > 0) {
		t.Errorf("%s = %v after %v builds", k.work, got, n)
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
					if v, err := k.resolve(s, wl); v == nil || err != nil {
						t.Errorf("resolve = %v, %v; want an artifact", v, err)
					}
				}()
			}
			wg.Wait()
			wantBuilds(t, k, s, 1)
			wantMetrics(t, s, map[string]float64{k.hits: n - 1})
		})

		t.Run(k.name+"/failed build is retried", func(t *testing.T) {
			s := newService(t, Config{Workers: 1})
			defer s.Shutdown(context.Background())
			k.failedBuildRetried(t, s)
			wantMetrics(t, s, map[string]float64{k.hits: 1})
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
			go func() { defer wg.Done(); check(k.resolve(s, boom)) }()
			<-started
			// The second caller joins the flight (or, if it loses the race
			// to the panic, starts and fails its own): either way it must
			// be released with the same failure, not hang.
			go func() { defer wg.Done(); check(k.resolve(s, boom)) }()
			close(release)
			wg.Wait()
			// The failed flight was dropped: the next caller retries and wins.
			mustResolve(t, k, s, tierWorkload(t))
			wantBuilds(t, k, s, 1)
			wantMetrics(t, s, map[string]float64{k.hits: 0})
		})
	}
}

// TestArtifactTierBounded: a tier keeps its artifactTierMax most recently
// resolved keys, so client-chosen budgets and seeds cannot grow it without
// bound; an evicted key is simply built again.
func TestArtifactTierBounded(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	builds := 0
	resolve := func(i int) int {
		v, err := s.plans.resolve(strconv.Itoa(i), func() (*harness.SamplePlan, error) {
			builds++
			return &harness.SamplePlan{}, nil
		})
		if v == nil || err != nil {
			t.Fatalf("resolve(%d) = %v, %v", i, v, err)
		}
		return builds
	}
	for i := 0; i <= artifactTierMax; i++ {
		resolve(i)
	}
	if got := resolve(artifactTierMax); got != artifactTierMax+1 {
		t.Errorf("builds = %d after re-asking the newest key, want a hit (%d)", got, artifactTierMax+1)
	}
	if got := resolve(0); got != artifactTierMax+2 {
		t.Errorf("builds = %d after re-asking the oldest key, want a rebuild (%d)", got, artifactTierMax+2)
	}
	// A hit refreshes a key: 2 is the oldest left, and 3 is evicted in its place.
	resolve(2)
	resolve(artifactTierMax + 1)
	if got := resolve(2); got != artifactTierMax+3 {
		t.Errorf("builds = %d after re-asking a recently hit key, want a hit (%d)", got, artifactTierMax+3)
	}
	if n := len(s.plans.flights); n != artifactTierMax {
		t.Errorf("tier holds %d entries, want %d", n, artifactTierMax)
	}
}
