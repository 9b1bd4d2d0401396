package simsvc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/isa"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// The artifact memo's fixed key parameters: exchange2_r at a small budget.
const tierWarmup, tierWindow = 1000, 2000

var tierSampling = simpoint.Config{IntervalInstrs: 500, MaxK: 4, Seed: 1}

// tierKind drives one artifact kind through the service's executor
// (Executor.Checkpoint / Executor.SamplePlan), so the table below pins the
// one memo for both kinds and the metrics that count it.
type tierKind struct {
	name string // "ckpt" | "plan"
	// resolve asks s for wl's artifact under the kind's fixed parameters;
	// v is nil when there is none.
	resolve func(s *Service, wl workload.Workload) (v any, err error)
	// failsWithError: a failed build surfaces as an error (plans) rather
	// than a nil artifact the cell degrades around (checkpoints).
	failsWithError bool

	built, hits string // metric names
	// work counts the instructions only a build executes: a checkpoint's
	// warmup, a plan's profiling pass.
	work string
}

func tierKinds() []tierKind {
	return []tierKind{
		{
			name: "ckpt",
			resolve: func(s *Service, wl workload.Workload) (any, error) {
				if ck := s.exec.Checkpoint(wl, tierWarmup); ck != nil {
					return ck, nil
				}
				return nil, nil
			},
			built: "sdo_checkpoints_captured_total", work: "sdo_warmup_instrs_simulated_total",
			hits: "sdo_checkpoint_hits_total",
		},
		{
			name: "plan", failsWithError: true,
			resolve: func(s *Service, wl workload.Workload) (any, error) {
				plan, err := s.exec.SamplePlan(wl, tierWarmup, tierWindow, tierSampling)
				if plan == nil {
					return nil, err
				}
				return plan, err
			},
			built: "sdo_sample_plans_built_total", work: "sdo_profiled_instrs_total",
			hits: "sdo_sample_plan_hits_total",
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

// flakyWorkload is tierWorkload whose builds panic while failing is set,
// each first calling park (if non-nil).
func flakyWorkload(t *testing.T, failing *atomic.Bool, park func()) workload.Workload {
	t.Helper()
	wl := tierWorkload(t)
	build := wl.Build
	wl.Build = func() (*isa.Program, func(*isa.Memory)) {
		if failing.Load() {
			if park != nil {
				park()
			}
			panic("injected build panic")
		}
		return build()
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

// wantFailure asserts a resolve that must yield no artifact.
func wantFailure(t *testing.T, k tierKind, v any, err error) {
	t.Helper()
	if v != nil || (err != nil) != k.failsWithError {
		t.Errorf("failed build = %v, %v; want no artifact, error=%v", v, err, k.failsWithError)
	}
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
	for _, k := range tierKinds() {
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
			// A failed build fails its caller and is not memoised: the next
			// caller builds again, and that build sticks.
			s := newService(t, Config{Workers: 1})
			defer s.Shutdown(context.Background())
			var failing atomic.Bool
			failing.Store(true)
			wl := flakyWorkload(t, &failing, nil)
			v, err := k.resolve(s, wl)
			wantFailure(t, k, v, err)
			failing.Store(false)
			for i := 0; i < 2; i++ {
				mustResolve(t, k, s, wl)
			}
			wantBuilds(t, k, s, 1)
			wantMetrics(t, s, map[string]float64{k.hits: 1})
		})

		t.Run(k.name+"/panicking build releases waiters and drops the flight", func(t *testing.T) {
			s := newService(t, Config{Workers: 1})
			defer s.Shutdown(context.Background())
			started, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			var failing atomic.Bool
			failing.Store(true)
			boom := flakyWorkload(t, &failing, func() {
				once.Do(func() { close(started) })
				<-release
			})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); v, err := k.resolve(s, boom); wantFailure(t, k, v, err) }()
			<-started
			// The second caller joins the flight (or, if it loses the race
			// to the panic, starts and fails its own): either way it must
			// be released with the same failure, not hang.
			go func() { defer wg.Done(); v, err := k.resolve(s, boom); wantFailure(t, k, v, err) }()
			close(release)
			wg.Wait()
			// The failed flight was dropped: the next caller of the same key
			// builds again and wins.
			failing.Store(false)
			mustResolve(t, k, s, boom)
			wantBuilds(t, k, s, 1)
			wantMetrics(t, s, map[string]float64{k.hits: 0})
		})
	}
}

// TestArtifactTierBounded: a tier keeps its 64 most recently resolved keys
// (the executor's memo bound), so client-chosen budgets and seeds cannot
// grow it without bound; an evicted key is simply built again.
func TestArtifactTierBounded(t *testing.T) {
	const bound = 64
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	wl := tierWorkload(t)
	resolve := func(seed int) int {
		cfg := tierSampling
		cfg.Seed = uint64(seed)
		if _, err := s.exec.SamplePlan(wl, tierWarmup, tierWindow, cfg); err != nil {
			t.Fatalf("resolve(%d): %v", seed, err)
		}
		return int(metric(t, s, "sdo_sample_plans_built_total"))
	}
	for i := 0; i <= bound; i++ {
		resolve(i)
	}
	if got := resolve(bound); got != bound+1 {
		t.Errorf("builds = %d after re-asking the newest key, want a hit (%d)", got, bound+1)
	}
	if got := resolve(0); got != bound+2 {
		t.Errorf("builds = %d after re-asking the oldest key, want a rebuild (%d)", got, bound+2)
	}
	// A hit refreshes a key: 2 is the oldest left, and 3 is evicted in its place.
	resolve(2)
	resolve(bound + 1)
	if got := resolve(2); got != bound+3 {
		t.Errorf("builds = %d after re-asking a recently hit key, want a hit (%d)", got, bound+3)
	}
	// The tier holds exactly the bound: every key still resolved hits.
	held := []int{0, 2, bound + 1}
	for i := 4; i <= bound; i++ {
		held = append(held, i)
	}
	for _, seed := range held {
		if got := resolve(seed); got != bound+3 {
			t.Fatalf("builds = %d after re-asking held key %d, want a hit (%d)", got, seed, bound+3)
		}
	}
}
