package simsvc

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// buildGate is an obs.Sink that parks every sampling-plan build until
// release. The service emits "plan-built" synchronously from inside the
// build, so a service recording into the gate stops inside its first
// sampled cell — on an event the test controls, not on a sleep — and
// resumes when released.
type buildGate struct {
	entered chan struct{} // one signal per parked build
	open    chan struct{}
	once    sync.Once
}

func newBuildGate(t *testing.T) *buildGate {
	t.Helper()
	g := &buildGate{entered: make(chan struct{}, 16), open: make(chan struct{})} // room for every build a test parks
	t.Cleanup(g.release)
	return g
}

func (g *buildGate) Emit(e obs.Event) {
	if e.Kind == "plan-built" {
		g.entered <- struct{}{}
		<-g.open
	}
}

func (g *buildGate) Close() error { return nil }

func (g *buildGate) release() { g.once.Do(func() { close(g.open) }) }

// gatedConfig records a service's sampling events into gate.
func gatedConfig(g *buildGate, workers int) Config {
	return Config{Workers: workers, WorkStealing: true, Trace: true,
		Recorder: obs.NewRecorder(obs.ClassSample, g)}
}

// stealReq is one sampled cell per variant of one workload, in
// enumeration (= enqueue) order; they share one sampling plan.
func stealReq(variants ...string) SweepRequest {
	req := specReq("exchange2_r", "unsafe")
	req.Variants = variants
	req.SimMode = "sampled"
	req.MaxInstrs = 6000
	req.SampleIntervalInstrs = 2000
	return req
}

func cellKeys(t *testing.T, s *Service, req SweepRequest) ([]RunSpec, []string) {
	t.Helper()
	_, specs, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(specs))
	for i, c := range specs {
		if keys[i], err = c.CacheKey(); err != nil {
			t.Fatal(err)
		}
	}
	return specs, keys
}

func claimedKeys(cells []StolenCell) []string {
	var keys []string
	for _, c := range cells {
		keys = append(keys, c.Key)
	}
	return keys
}

// TestStealCellsFiltersBeforeCap: a claim skips cells that are settled,
// cached or leased before it applies max, so it never answers "nothing"
// while a claimable cell exists; and a completed steal leaves the
// stealable set at once instead of waiting for the owner's worker.
func TestStealCellsFiltersBeforeCap(t *testing.T) {
	owner := newService(t, Config{Workers: 1, WorkStealing: true})
	defer owner.Shutdown(context.Background())
	thief := newService(t, Config{Workers: 1})
	defer thief.Shutdown(context.Background())

	specs, k := cellKeys(t, owner, stealReq("unsafe", "stt", "l1", "l2", "hybrid"))
	for i, c := range specs {
		owner.steal.enqueue(k[i], c) // pending {k0..k4}; nothing runs
	}

	// k4 is stolen, completed and cached.
	cells := owner.StealCells("t1", 1)
	if got := claimedKeys(cells); !reflect.DeepEqual(got, k[4:]) {
		t.Fatalf("first claim = %v, want the tail cell %v", got, k[4:])
	}
	run := <-thief.RunStolen(context.Background(), cells[0].Spec)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if err := owner.CompleteSteal(k[4], run.Wire); err != nil {
		t.Fatal(err)
	}
	owner.steal.mu.Lock()
	_, still := owner.steal.pending[k[4]]
	owner.steal.mu.Unlock()
	if still {
		t.Error("completed steal is still in the stealable set")
	}

	// k3 is leased and outstanding; the next one-cell claim must reach k2.
	if got := claimedKeys(owner.StealCells("t2", 1)); !reflect.DeepEqual(got, k[3:4]) {
		t.Fatalf("second claim = %v, want %v", got, k[3:4])
	}
	if got := claimedKeys(owner.StealCells("t3", 1)); !reflect.DeepEqual(got, k[2:3]) {
		t.Fatalf("claim past a settled and a leased cell = %v, want %v", got, k[2:3])
	}

	// A cell that is cached while still pending (another job produced it)
	// is filtered too, not handed out and not counted against max.
	r, _ := owner.cache.Get(k[4])
	owner.cache.Put(k[1], r)
	if got := claimedKeys(owner.StealCells("t4", 1)); !reflect.DeepEqual(got, k[0:1]) {
		t.Fatalf("claim past a cached pending cell = %v, want %v", got, k[0:1])
	}
	if got := owner.StealCells("t5", 1); len(got) != 0 {
		t.Fatalf("claim with everything settled or leased = %v, want none", claimedKeys(got))
	}
}

// TestStealCellsTailFirst: thieves lease from the tail of the queue while
// the owner's worker dequeues from the head, so the owner reaches a
// leased cell — and parks on it — only once nothing unleased is left.
func TestStealCellsTailFirst(t *testing.T) {
	gate := newBuildGate(t)
	owner := newService(t, gatedConfig(gate, 1))
	defer owner.Shutdown(context.Background())
	thief := newService(t, Config{Workers: 1})
	defer thief.Shutdown(context.Background())

	req := stealReq("unsafe", "stt", "l1", "l2", "hybrid")
	_, k := cellKeys(t, owner, req)
	j, err := owner.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the owner's one worker is inside k0; k1..k4 are queued

	cells := owner.StealCells("thief", 2)
	if got, want := claimedKeys(cells), []string{k[4], k[3]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("claim order = %v, want the reverse of enqueue order %v", got, want)
	}
	gate.release()

	// The owner works k0, k1, k2 and only then meets the thief at k3.
	pollUntil(t, "the owner to wait on a lease", 30*time.Second, func() bool {
		for _, c := range j.Trace().Doc().Cells {
			if hasSpan(c.Spans, trace.PhaseStealClaim) {
				return true
			}
		}
		return false
	})
	if st := j.Status(); st.Completed != 3 {
		t.Errorf("owner parked on a lease with %d of 3 unleased cells done", st.Completed)
	}
	for _, c := range cells {
		run := <-thief.RunStolen(context.Background(), c.Spec)
		if run.Err != nil {
			t.Fatal(run.Err)
		}
		if err := owner.CompleteSteal(c.Key, run.Wire); err != nil {
			t.Fatal(err)
		}
	}
	waitJob(t, j)
	wantMetrics(t, owner, map[string]float64{
		"sdo_runs_executed_total": 3, "sdo_cluster_cells_stolen_total": 2,
		"sdo_cluster_steal_completions_total": 2, "sdo_cluster_lease_expiries_total": 0,
	})
}

// TestIdleWorkersCountsStolenRuns: a stolen run occupies a pool slot, so
// the idle count that sizes the next claim sees it, and its completion is
// an idle edge.
func TestIdleWorkersCountsStolenRuns(t *testing.T) {
	gate := newBuildGate(t)
	thief := newService(t, gatedConfig(gate, 2))
	defer thief.Shutdown(context.Background())

	specs, _ := cellKeys(t, thief, stealReq("unsafe"))
	if got := thief.IdleWorkers(); got != 2 {
		t.Fatalf("IdleWorkers at rest = %d, want 2", got)
	}
	run := thief.RunStolen(context.Background(), specs[0])
	if got := thief.IdleWorkers(); got != 1 {
		t.Errorf("IdleWorkers right after RunStolen returned = %d, want 1", got)
	}
	<-gate.entered // the stolen cell is mid-run
	if got := thief.IdleWorkers(); got != 1 {
		t.Errorf("IdleWorkers during a stolen run = %d, want 1", got)
	}
	gate.release()
	if r := <-run; r.Err != nil {
		t.Fatal(r.Err)
	}
	select {
	case <-thief.IdleEdge():
	case <-time.After(30 * time.Second):
		t.Fatal("no idle edge after the stolen run finished")
	}
	if got := thief.IdleWorkers(); got != 2 {
		t.Errorf("IdleWorkers after the stolen run = %d, want 2", got)
	}
}
