package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

// buildGate is an obs.Sink that parks every sampling-plan build (after
// the first pass, which it lets through; up to only, if set) until
// release. The service emits "plan-built" synchronously from inside the
// build, so a service recording into the gate stops inside its first
// sampled cell — on an event the test controls, not on a sleep — and
// resumes when released.
type buildGate struct {
	entered chan struct{} // one signal per parked build
	open    chan struct{}
	once    sync.Once
	pass    atomic.Int32 // builds let through before the gate starts parking
	only    int32        // when > 0, how many builds park; later ones pass (set before use)
	parked  atomic.Int32
}

func newBuildGate(t *testing.T) *buildGate {
	t.Helper()
	g := &buildGate{entered: make(chan struct{}, 16), open: make(chan struct{})} // room for every build a test parks
	t.Cleanup(g.release)
	return g
}

func (g *buildGate) Emit(e obs.Event) {
	if e.Kind == "plan-built" && g.pass.Add(-1) < 0 && (g.only == 0 || g.parked.Add(1) <= g.only) {
		g.entered <- struct{}{}
		<-g.open
	}
}

func (g *buildGate) Close() error { return nil }

func (g *buildGate) release() { g.once.Do(func() { close(g.open) }) }

// gatedConfig records a service's sampling events into gate.
func gatedConfig(g *buildGate, workers int) Config {
	return Config{Workers: workers, Recorder: obs.NewRecorder(obs.ClassSample, g)}
}

// stubPeer is a cluster peer with nothing to give: it answers every
// lookup with misses and every claim with no cell, acknowledges hints,
// counts claims and keeps the completions it is sent.
type stubPeer struct {
	*httptest.Server
	claims      atomic.Int64
	mu          sync.Mutex
	completions map[string][]byte // key -> posted entry
}

func newStubPeer(t *testing.T) *stubPeer {
	t.Helper()
	p := &stubPeer{completions: map[string][]byte{}}
	p.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/cache/lookup":
			fabric.ServeLookup(w, r, func(string) ([]byte, bool) { return nil, false })
		case "/cluster/steal":
			p.claims.Add(1)
			io.WriteString(w, "[]")
		case "/cluster/wake":
			w.WriteHeader(http.StatusNoContent)
		case "/cluster/complete":
			body, _ := io.ReadAll(r.Body)
			p.mu.Lock()
			p.completions[r.URL.Query().Get("key")] = body
			p.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(p.Close)
	return p
}

// completion returns the entry posted back for key, if any.
func (p *stubPeer) completion(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.completions[key]
	return b, ok
}

// stealing turns stealing on in cfg with p as its one peer.
func (p *stubPeer) stealing(cfg Config) Config {
	cfg.Peers = []string{p.URL}
	cfg.StealFrom = cfg.Peers
	cfg.PeerProbeInterval = -1
	return cfg
}

// setStealTick sets the steal loop's fallback period for the services
// built from here to the end of the test.
func setStealTick(t *testing.T, d time.Duration) {
	t.Helper()
	old := stealTick
	stealTick = d
	t.Cleanup(func() { stealTick = old })
}

// stealReq is one sampled cell per variant of one workload, in
// enumeration (= enqueue) order; they share one sampling plan.
func stealReq(variants ...string) harness.Request {
	req := specReq("exchange2_r", "unsafe")
	req.Variants = variants
	req.SimMode = "sampled"
	req.MaxInstrs = 6000
	req.SampleIntervalInstrs = 2000
	return req
}

func cellKeys(t *testing.T, s *Service, req harness.Request) ([]harness.RunSpec, []string) {
	t.Helper()
	_, specs, err := req.Resolve()
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

func claimedKeys(cells []stolenCell) []string {
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
	owner := newService(t, newStubPeer(t).stealing(Config{Workers: 1}))
	defer owner.Shutdown(context.Background())
	thief := newService(t, Config{Workers: 1})
	defer thief.Shutdown(context.Background())

	specs, k := cellKeys(t, owner, stealReq("unsafe", "stt", "l1", "l2", "hybrid"))
	for i, c := range specs {
		owner.steal.enqueue(k[i], c) // pending {k0..k4}; nothing runs
	}

	// k4 is stolen, completed and cached.
	cells := owner.claimCells("t1", 1)
	if got := claimedKeys(cells); !reflect.DeepEqual(got, k[4:]) {
		t.Fatalf("first claim = %v, want the tail cell %v", got, k[4:])
	}
	wire, err := thief.stolenWire(context.Background(), cells[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.completeSteal(k[4], wire); err != nil {
		t.Fatal(err)
	}
	owner.steal.mu.Lock()
	_, still := owner.steal.pending[k[4]]
	owner.steal.mu.Unlock()
	if still {
		t.Error("completed steal is still in the stealable set")
	}

	// k3 is leased and outstanding; the next one-cell claim must reach k2.
	if got := claimedKeys(owner.claimCells("t2", 1)); !reflect.DeepEqual(got, k[3:4]) {
		t.Fatalf("second claim = %v, want %v", got, k[3:4])
	}
	if got := claimedKeys(owner.claimCells("t3", 1)); !reflect.DeepEqual(got, k[2:3]) {
		t.Fatalf("claim past a settled and a leased cell = %v, want %v", got, k[2:3])
	}

	// A cell that is cached while still pending (another job produced it)
	// is filtered too, not handed out and not counted against max.
	r, _ := owner.cache.Get(k[4])
	owner.cache.Put(k[1], *r)
	if got := claimedKeys(owner.claimCells("t4", 1)); !reflect.DeepEqual(got, k[0:1]) {
		t.Fatalf("claim past a cached pending cell = %v, want %v", got, k[0:1])
	}
	if got := owner.claimCells("t5", 1); len(got) != 0 {
		t.Fatalf("claim with everything settled or leased = %v, want none", claimedKeys(got))
	}
}

// TestStealCellsTailFirst: thieves lease from the tail of the queue while
// the owner's worker dequeues from the head, so the owner reaches a
// leased cell — and parks on it — only once nothing unleased is left.
func TestStealCellsTailFirst(t *testing.T) {
	gate := newBuildGate(t)
	cfg := gatedConfig(gate, 1)
	cfg.Trace = true
	owner := newService(t, newStubPeer(t).stealing(cfg))
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

	cells := owner.claimCells("thief", 2)
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
		wire, err := thief.stolenWire(context.Background(), c.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.completeSteal(c.Key, wire); err != nil {
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
// the idle count that sizes the next claim sees it; its entry is posted
// back to the owner; and its end is an idle edge, which starts a steal
// round with the fallback tick an hour away.
func TestIdleWorkersCountsStolenRuns(t *testing.T) {
	setStealTick(t, time.Hour)
	owner := newStubPeer(t)
	gate := newBuildGate(t)
	thief := newService(t, owner.stealing(gatedConfig(gate, 2)))
	defer thief.Shutdown(context.Background())

	specs, keys := cellKeys(t, thief, stealReq("unsafe"))
	if got := thief.idleWorkers(); got != 2 {
		t.Fatalf("idleWorkers at rest = %d, want 2", got)
	}
	thief.runStolen(owner.URL, stolenCell{Key: keys[0], Spec: specs[0], Until: time.Now().Add(time.Minute)})
	if got := thief.idleWorkers(); got != 1 {
		t.Errorf("idleWorkers right after runStolen returned = %d, want 1", got)
	}
	<-gate.entered // the stolen cell is mid-run
	if got := thief.idleWorkers(); got != 1 {
		t.Errorf("idleWorkers during a stolen run = %d, want 1", got)
	}
	claims := owner.claims.Load()
	gate.release()
	pollUntil(t, "the completion, then the idle edge's claim", 30*time.Second, func() bool {
		return metric(t, thief, "sdo_cluster_steals_total") == 1 && owner.claims.Load() > claims
	})
	wire, _ := owner.completion(keys[0])
	if _, err := decodeEntry(keys[0], wire); err != nil {
		t.Errorf("posted completion is not the cell's entry: %v", err)
	}
	if got := thief.idleWorkers(); got != 2 {
		t.Errorf("idleWorkers after the stolen run = %d, want 2", got)
	}
	if v := metric(t, thief, "sdo_cluster_steal_errors_total"); v != 0 {
		t.Errorf("%v steal errors, want 0", v)
	}
}

// TestStolenCellWireFormat pins a stolen cell's JSON field for field (the
// spec's fields travel under their Go names): an owner and a thief built
// from different commits must still read each other's claims.
func TestStolenCellWireFormat(t *testing.T) {
	b, err := json.Marshal(stolenCell{Key: "k", Until: time.Unix(0, 0).UTC(), Spec: harness.RunSpec{
		Workload: "gcc_r", Variant: core.Hybrid, Model: pipeline.Futuristic,
		WarmupInstrs: 20_000, MaxInstrs: 40_000, IntervalCycles: 3, WarmupMode: core.WarmupFunctional,
		Ablate:  core.Ablation{AlwaysValidate: true},
		SimMode: harness.SimSampled, SampleInterval: 2000, SampleMaxK: 4, SampleSeed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"key":"k","spec":{"Workload":"gcc_r","Variant":6,"Model":1,"WarmupInstrs":20000,"MaxInstrs":40000,"IntervalCycles":3,"WarmupMode":1,"Ablate":{"DisableEarlyForward":false,"AlwaysValidate":true,"NoImplicitChannelProtection":false,"OblDRAMVariant":false},"SimMode":"sampled","SampleInterval":2000,"SampleMaxK":4,"SampleSeed":7},"until":"1970-01-01T00:00:00Z"}`
	if string(b) != want {
		t.Errorf("stolen cell wire form changed:\n got %s\nwant %s", b, want)
	}
}

// eightPlansReq is one sampled cell per workload, so each cell builds its
// own sampling plan first: a gate holds any one of them mid-run.
func eightPlansReq() harness.Request {
	req := stealReq("hybrid")
	req.Workloads = []string{"exchange2_r", "deepsjeng_r", "xz_r", "mcf_r", "gcc_r", "x264_r", "leela_r", "namd_r"}
	return req
}

// soloExport is req's export from a lone service, for comparison.
func soloExport(t *testing.T, req harness.Request) []byte {
	t.Helper()
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())
	return exportBytes(t, submitAndWait(t, s, req))
}

// stealNode is one service of startStealNodes behind its test server.
type stealNode struct {
	*Service
	srv *httptest.Server
}

// startStealNodes starts a service per config, each behind its own test
// server and stealing from every other one (Peers and StealFrom are set
// here). wrap, when non-nil, puts middleware in front of node i's
// handler. gates are released before any node shuts down.
func startStealNodes(t *testing.T, cfgs []Config, wrap func(i int, h http.Handler) http.Handler, gates ...*buildGate) []*stealNode {
	t.Helper()
	srvs := make([]*httptest.Server, len(cfgs))
	urls := make([]string, len(cfgs))
	for i := range srvs {
		srvs[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + srvs[i].Listener.Addr().String()
	}
	nodes := make([]*stealNode, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Peers = slices.Delete(slices.Clone(urls), i, i+1)
		cfg.StealFrom = cfg.Peers
		cfg.PeerProbeInterval = -1
		s := newService(t, cfg)
		h := s.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srvs[i].Config.Handler = h
		srvs[i].Start()
		t.Cleanup(func() {
			srvs[i].Close()
			s.Shutdown(context.Background())
		})
		nodes[i] = &stealNode{Service: s, srv: srvs[i]}
	}
	for _, g := range gates {
		t.Cleanup(g.release)
	}
	return nodes
}

// waitMetric polls s's /metrics until name reaches min.
func waitMetric(t *testing.T, s *Service, name string, min float64) {
	t.Helper()
	pollUntil(t, fmt.Sprintf("%s to reach %v", name, min), time.Minute,
		func() bool { return metric(t, s, name) >= min })
}

// TestStealProtocol runs hint, claim, run and complete between two bare
// services, with the fallback tick an hour away. Owner a's one worker
// parks in its first plan build; a's submission hints thief b, which
// claims, runs and completes the cells queued behind it. a's export is
// byte-identical to a solo run; a's leases, the completions it accepted
// and b's steals agree; no lease expires.
func TestStealProtocol(t *testing.T) {
	setStealTick(t, time.Hour)
	req := eightPlansReq()
	golden := soloExport(t, req)
	gate := newBuildGate(t)
	nodes := startStealNodes(t, []Config{gatedConfig(gate, 1), {Workers: 1}}, nil, gate)
	a, b := nodes[0], nodes[1]

	st := postSweep(t, a.srv, req)
	waitMetric(t, b.Service, "sdo_cluster_steals_total", 1)
	gate.release()
	if export := get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", http.StatusOK); !bytes.Equal(export, golden) {
		t.Fatalf("stolen sweep export differs from the solo run's (%d vs %d bytes)", len(export), len(golden))
	}
	leased := metric(t, a.Service, "sdo_cluster_cells_stolen_total")
	pollUntil(t, "b's steal count to reach a's leases", time.Minute, func() bool {
		return metric(t, b.Service, "sdo_cluster_steals_total") == leased
	})
	wantMetrics(t, a.Service, map[string]float64{
		"sdo_cluster_steal_completions_total": leased, "sdo_cluster_lease_expiries_total": 0,
	})
	wantMetrics(t, b.Service, map[string]float64{
		"sdo_cluster_steal_hints_total": 1, "sdo_cluster_steal_errors_total": 0, "sdo_cluster_cells_stolen_total": 0,
	})
}

// TestStealLeavesFollowersToTheOwner runs a grid with equivalent cells
// (RunSpec.Representative) on an owner and two thieves. The owner's one
// worker parks in its first plan build until the thieves have completed
// every other representative. A follower is never leased: the owner
// answers it from its representative's result, so the three nodes
// together simulate each representative exactly once, and the export is
// byte-identical to a solo run.
func TestStealLeavesFollowersToTheOwner(t *testing.T) {
	setStealTick(t, time.Hour)
	req := stealReq() // every Table II variant
	req.Models = []string{"spectre", "futuristic"}
	specs, _ := cellKeys(t, nil, req)
	reps := make(map[harness.RunSpec]bool)
	for _, spec := range specs {
		reps[spec.Representative()] = true
	}
	if len(reps) == len(specs) || specs[0].Representative() != specs[0] {
		t.Fatalf("%d representatives for %d cells, the first its own %v: the grid must have followers", len(reps), len(specs), specs[0].Representative() == specs[0])
	}
	golden := soloExport(t, req)
	gate := newBuildGate(t)
	nodes := startStealNodes(t, []Config{gatedConfig(gate, 1), {Workers: 1}, {Workers: 1}}, nil, gate)
	a := nodes[0]

	st := postSweep(t, a.srv, req)
	<-gate.entered // a's worker holds the first cell; the rest are queued
	waitMetric(t, a.Service, "sdo_cluster_steal_completions_total", float64(len(reps)-1))
	gate.release()
	if export := get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", http.StatusOK); !bytes.Equal(export, golden) {
		t.Fatalf("stolen sweep export differs from the solo run's (%d vs %d bytes)", len(export), len(golden))
	}
	var executed float64
	for _, n := range nodes {
		executed += metric(t, n.Service, "sdo_runs_executed_total")
	}
	if executed != float64(len(reps)) {
		t.Errorf("the nodes simulated %v runs for %d distinct representatives of %d cells", executed, len(reps), len(specs))
	}
	wantMetrics(t, a.Service, map[string]float64{
		"sdo_cluster_cells_stolen_total": float64(len(reps) - 1), "sdo_cluster_lease_expiries_total": 0,
	})
}

// TestStealingOff: a service without StealFrom has no protocol routes. A
// claim or a hint sent to it gets a 404, which is an answer, so the
// stealing peer that sent it takes no strike against it and finishes
// its own sweep alone.
func TestStealingOff(t *testing.T) {
	setStealTick(t, time.Hour)
	off := newService(t, Config{Workers: 1})
	defer off.Shutdown(context.Background())
	var protocolReqs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			protocolReqs.Add(1)
		}
		off.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	get(t, srv.URL+"/cluster/steal?max=1", http.StatusNotFound)
	resp, err := http.Post(srv.URL+"/cluster/wake", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /cluster/wake with stealing off: %d, want 404", resp.StatusCode)
	}

	// a's one worker parks in its first plan build, so its sweep queues
	// cells behind it: one hint, then, once the sweep is done, an
	// idle-edge claim.
	gate := newBuildGate(t)
	cfg := gatedConfig(gate, 1)
	cfg.Peers, cfg.StealFrom, cfg.PeerProbeInterval = []string{srv.URL}, []string{srv.URL}, -1
	a := newService(t, cfg)
	defer a.Shutdown(context.Background())
	j, err := a.Submit(eightPlansReq())
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	gate.release()
	waitJob(t, j)
	pollUntil(t, "a's hint and claim", time.Minute, func() bool { return protocolReqs.Load() >= 4 })
	if ps := a.Health().Peers[0]; ps.State != "ok" || ps.ConsecutiveFails != 0 || ps.Errors != 0 {
		t.Errorf("the stealing-off peer took strikes: %+v", ps)
	}
	wantMetrics(t, a, map[string]float64{
		"sdo_cluster_steal_errors_total": 1, "sdo_cluster_steals_total": 0, "sdo_runs_executed_total": 8,
	})
	if _, ok := off.Registry().Value("sdo_cluster_steal_hints_total"); ok {
		t.Error("a service with stealing off registers the steal counters")
	}
}

// TestStealOnIdleEdge: a thief that is busy when the hint arrives steals
// as soon as its own job finishes — the freed slot wakes it, with no
// second hint and no tick.
func TestStealOnIdleEdge(t *testing.T) {
	setStealTick(t, time.Hour)
	gateA, gateB := newBuildGate(t), newBuildGate(t)
	nodes := startStealNodes(t, []Config{gatedConfig(gateA, 1), gatedConfig(gateB, 1)}, nil, gateA, gateB)
	a, b := nodes[0], nodes[1]
	// b's own one-cell job parks in its plan build.
	own := eightPlansReq()
	own.Workloads = []string{"perlbench_r"}
	jB, err := b.Submit(own)
	if err != nil {
		t.Fatal(err)
	}
	<-gateB.entered

	jA, err := a.Submit(eightPlansReq())
	if err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b.Service, "sdo_cluster_steal_hints_total", 1)
	if v := metric(t, a.Service, "sdo_cluster_cells_stolen_total"); v != 0 {
		t.Fatalf("busy thief claimed %v cells", v)
	}

	gateB.release()
	waitMetric(t, b.Service, "sdo_cluster_steals_total", 1)
	if v := metric(t, b.Service, "sdo_cluster_steal_hints_total"); v != 1 {
		t.Errorf("thief needed %v hints, want the one it was busy for", v)
	}
	gateA.release()
	waitJob(t, jB)
	waitJob(t, jA)
}

// TestStealNoBatchBarrier: a two-slot thief with one stolen cell stuck
// keeps stealing on its other slot; nothing waits for a batch.
func TestStealNoBatchBarrier(t *testing.T) {
	setStealTick(t, time.Hour)
	req := eightPlansReq()
	golden := soloExport(t, req)
	gateA, gateB := newBuildGate(t), newBuildGate(t)
	gateB.only = 1 // the first of the thief's stolen cells parks in its plan build
	nodes := startStealNodes(t, []Config{gatedConfig(gateA, 1), gatedConfig(gateB, 2)}, nil, gateA, gateB)
	a, b := nodes[0], nodes[1]

	j, err := a.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-gateB.entered
	waitMetric(t, b.Service, "sdo_cluster_steals_total", 2)
	gateB.release()
	gateA.release()
	waitJob(t, j)
	if export := exportBytes(t, j); !bytes.Equal(export, golden) {
		t.Fatalf("stolen sweep export differs from the solo run's (%d vs %d bytes)", len(export), len(golden))
	}
}

// TestStealLostHint: a hint that fails is counted and not retried; the
// fallback ticker — 20 ms here, nothing else can wake this thief — finds
// the work.
func TestStealLostHint(t *testing.T) {
	setStealTick(t, 20*time.Millisecond)
	gate := newBuildGate(t)
	nodes := startStealNodes(t, []Config{gatedConfig(gate, 1), {Workers: 1}}, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/wake" {
				http.Error(w, "hint lost", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}, gate)
	a, b := nodes[0], nodes[1]

	j, err := a.Submit(eightPlansReq())
	if err != nil {
		t.Fatal(err)
	}
	waitMetric(t, b.Service, "sdo_cluster_steals_total", 1)
	waitMetric(t, a.Service, "sdo_cluster_steal_errors_total", 1)
	if v := metric(t, b.Service, "sdo_cluster_steal_hints_total"); v != 0 {
		t.Errorf("thief counted %v hints, want 0 (the endpoint was failing)", v)
	}
	gate.release()
	waitJob(t, j)
}

// TestStealLeaseExpiryReclamation is the crash-safety pillar: a thief
// claims cells and dies (never completes), and after the lease TTL the
// owner reclaims and finishes them itself — the sweep still completes
// exactly. Each lease names the thief by the address its claim came from.
func TestStealLeaseExpiryReclamation(t *testing.T) {
	// Sampled cells, so the owner's one worker parks inside its first
	// cell's plan build and the other three stay queued for the claim.
	req := smallReq()
	req.SimMode = "sampled"
	req.MaxInstrs = 6000
	req.SampleIntervalInstrs = 2000
	golden := soloExport(t, req)

	gate := newBuildGate(t)
	gate.only = 1
	cfg := newStubPeer(t).stealing(gatedConfig(gate, 1))
	cfg.StealLeaseTTL = 250 * time.Millisecond
	owner, srv := newPeerNode(t, cfg)
	t.Cleanup(gate.release)

	j, err := owner.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	// The "thief" claims queued cells over the wire and is then
	// SIGKILLed: no completion ever arrives.
	body := get(t, srv.URL+"/cluster/steal?max=3", http.StatusOK)
	gate.release()
	var cells []stolenCell
	if err := json.Unmarshal(body, &cells); err != nil {
		t.Fatalf("steal claim: %v: %s", err, body)
	}
	if len(cells) != 3 {
		t.Fatalf("claimed %d cells while the one worker holds the first, want the other 3", len(cells))
	}

	waitJob(t, j)
	if export := exportBytes(t, j); !bytes.Equal(export, golden) {
		t.Fatalf("post-reclamation export differs from the solo run's (%d vs %d bytes)", len(export), len(golden))
	}
	expired := metric(t, owner, "sdo_cluster_lease_expiries_total")
	if expired < 1 {
		t.Errorf("lease expiries = %v, want >= 1 (dead thief must be reclaimed)", expired)
	}
	// Each expiry is one steal-lease-expired event in the flight recorder.
	if n := faultEvents(owner)["steal-lease-expired"]; float64(n) != expired {
		t.Errorf("flight recorder holds %d steal-lease-expired events for %v expiries", n, expired)
	}
	if v := metric(t, owner, "sdo_cluster_steal_completions_total"); v != 0 {
		t.Errorf("steal completions = %v, want 0 (thief never reported back)", v)
	}
	named := 0
	for _, e := range owner.flight.Events() {
		if _, rest, ok := strings.Cut(e.Detail, "(thief "); ok && e.Kind == "steal-lease-expired" {
			named++
			thief, _, _ := strings.Cut(rest, ")")
			if host, _, err := net.SplitHostPort(thief); err != nil || host != "127.0.0.1" {
				t.Errorf("lease names thief %q, want the claim's remote address", thief)
			}
		}
	}
	if named == 0 {
		t.Error("no reclaimed lease names its thief")
	}
}
