package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/simsvc"
)

// swapHandler lets a httptest server start before the Node that will
// serve it exists (members need every node's URL up front).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// wrap puts mw in front of the current handler.
func (s *swapHandler) wrap(mw func(http.Handler) http.Handler) {
	s.mu.Lock()
	s.h = mw(s.h)
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testNode struct {
	id   string
	srv  *httptest.Server
	swap *swapHandler
	gate *buildGate
	svc  *simsvc.Service
	node *Node
}

// buildGate is the obs.Sink every test node's service records its
// sampling events into. The service emits "plan-built" synchronously from
// inside a sampling-plan build, so an armed gate (gateBuilds) stops the
// node inside a sampled cell — on an event the test controls, not on a
// sleep. Unarmed, it lets everything through.
type buildGate struct {
	hold    atomic.Int32  // builds still to park
	entered chan struct{} // one signal per parked build
	open    chan struct{}
}

func (g *buildGate) Emit(e obs.Event) {
	if e.Kind == "plan-built" && g.hold.Add(-1) >= 0 {
		g.entered <- struct{}{}
		<-g.open
	}
}

func (g *buildGate) Close() error { return nil }

// startCluster builds an in-process cluster of len(ids) nodes, each a
// full simsvc.Service wrapped by a cluster Node behind its own test
// server. mut customizes the i-th node's configs before construction;
// stealing loops default to off so tests opt in explicitly.
func startCluster(t *testing.T, ids []string, mut func(i int, scfg *simsvc.Config, ncfg *Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, len(ids))
	members := make([]Member, len(ids))
	for i, id := range ids {
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{id: id, srv: srv, swap: sw,
			gate: &buildGate{entered: make(chan struct{}, 16), open: make(chan struct{})}}
		members[i] = Member{ID: id, URL: srv.URL}
	}
	for i, id := range ids {
		var peers []string
		for j, m := range members {
			if j != i {
				peers = append(peers, m.URL)
			}
		}
		scfg := simsvc.Config{
			Workers:      2,
			OwnsID:       Owns(id, ids),
			WorkStealing: true,
			Peers:        peers,
			Recorder:     obs.NewRecorder(obs.ClassSample, nodes[i].gate),
		}
		ncfg := Config{Self: id, Members: members, StealInterval: -1}
		if mut != nil {
			mut(i, &scfg, &ncfg)
		}
		svc, err := simsvc.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		ncfg.Service = svc
		node, err := New(ncfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].svc, nodes[i].node = svc, node
		nodes[i].swap.set(node.Handler())
		t.Cleanup(func() {
			node.Close()
			svc.Shutdown(context.Background())
		})
	}
	return nodes
}

// smallReq is a fast sweep: 2 workloads x 2 variants x 1 model = 4 cells.
func smallReq() harness.Request {
	warmup := uint64(1000)
	return harness.Request{
		Workloads:    []string{"exchange2_r", "deepsjeng_r"},
		Variants:     []string{"unsafe", "hybrid"},
		Models:       []string{"spectre"},
		MaxInstrs:    2000,
		WarmupInstrs: &warmup,
	}
}

func postSweep(t *testing.T, url string, req harness.Request) simsvc.Status {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /sweeps: %d: %s", resp.StatusCode, b)
	}
	var st simsvc.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func get(t *testing.T, url string, wantCode int) ([]byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %d (want %d): %s", url, resp.StatusCode, wantCode, b)
	}
	return b, resp.Header
}

// metric scrapes one counter value from a node's /metrics document.
func metric(t *testing.T, url, name string) float64 {
	t.Helper()
	b, _ := get(t, url+"/metrics", 200)
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

// flightKinds counts the fault events in a node's GET /debug/flight
// document by kind.
func flightKinds(t *testing.T, url string) map[string]int {
	t.Helper()
	b, _ := get(t, url+"/debug/flight", 200)
	var doc struct {
		Events []struct{ Class, Kind string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("flight document: %v: %s", err, b)
	}
	kinds := map[string]int{}
	for _, e := range doc.Events {
		if e.Class == "fault" {
			kinds[e.Kind]++
		}
	}
	return kinds
}

// idOwnedBy finds a job ID of the standard sweep-N form that the given
// member owns — what that node's own OwnsID allocation would produce.
func idOwnedBy(t *testing.T, owner string, ids []string) string {
	t.Helper()
	for n := 1; n < 10_000; n++ {
		id := fmt.Sprintf("sweep-%d", n)
		if ownerOf(id, ids) == owner {
			return id
		}
	}
	t.Fatalf("no sweep-N id owned by %s", owner)
	return ""
}

func TestOwnershipPartition(t *testing.T) {
	ids := []string{"a", "b", "c"}
	owned := map[string]int{}
	for n := 1; n <= 300; n++ {
		id := fmt.Sprintf("sweep-%d", n)
		o := ownerOf(id, ids)
		owned[o]++
		// Every node computes the same owner, and exactly one owns it.
		for _, self := range ids {
			if got := Owns(self, ids)(id); got != (self == o) {
				t.Fatalf("Owns(%s)(%s) = %v, owner %s", self, id, got, o)
			}
		}
	}
	for _, id := range ids {
		if owned[id] == 0 {
			t.Errorf("member %s owns no IDs of 300 (distribution %v)", id, owned)
		}
	}
}

// TestClusterProxyServesPeerJobs is the single-logical-service pillar:
// a sweep submitted to one node is fully observable from every other,
// with byte-identical exports.
func TestClusterProxyServesPeerJobs(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, nil)
	a, b := nodes[0], nodes[1]

	st := postSweep(t, b.srv.URL, smallReq())
	if owner := ownerOf(st.ID, []string{"a", "b", "c"}); owner != "b" {
		t.Fatalf("node b allocated %s owned by %s", st.ID, owner)
	}

	direct, _ := get(t, b.srv.URL+"/sweeps/"+st.ID+"/export", 200)
	proxied, hdr := get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", 200)
	if !bytes.Equal(direct, proxied) {
		t.Fatalf("proxied export differs from owner's export (%d vs %d bytes)", len(proxied), len(direct))
	}
	if via := hdr.Get(ViaHeader); via != "b" {
		t.Errorf("proxied export Via = %q, want b", via)
	}

	// Status and cancel-after-done work through the proxy too.
	body, _ := get(t, a.srv.URL+"/sweeps/"+st.ID, 200)
	var got simsvc.Status
	if err := json.Unmarshal(body, &got); err != nil || got.ID != st.ID {
		t.Fatalf("proxied status: %v (%s)", err, body)
	}
	if v := metric(t, a.srv.URL, "sdo_cluster_proxied_requests_total"); v < 2 {
		t.Errorf("node a proxied %v requests, want >= 2", v)
	}
}

// TestClusterProxyLoopPrevention pins the hop header contract: a
// request that already hopped once is answered locally, never
// re-forwarded — so two nodes that disagree about ownership produce a
// 404, not a proxy cycle.
func TestClusterProxyLoopPrevention(t *testing.T) {
	var peerHits atomic.Int32
	nodes := startCluster(t, []string{"a", "b"}, nil)
	a, b := nodes[0], nodes[1]

	// Count every request reaching node b.
	inner := b.node.Handler()
	b.swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerHits.Add(1)
		inner.ServeHTTP(w, r)
	}))

	unknown := idOwnedBy(t, "b", []string{"a", "b"})
	req, _ := http.NewRequest(http.MethodGet, a.srv.URL+"/sweeps/"+unknown, nil)
	req.Header.Set(HopHeader, "b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("hopped unknown-job request: %d, want 404", resp.StatusCode)
	}
	if n := peerHits.Load(); n != 0 {
		t.Fatalf("hopped request was re-forwarded %d times", n)
	}

	// Without the hop header the peer IS consulted — and the request it
	// receives carries the header, so it terminates there.
	get(t, a.srv.URL+"/sweeps/"+unknown, 404)
	if n := peerHits.Load(); n < 1 {
		t.Fatal("un-hopped unknown-job request never reached the peer")
	}
}

// TestClusterOwnerUnreachable is honest degradation: when the owning
// node is down, a request for its job fails fast with a 503 naming the
// owner instead of hanging or pretending the job does not exist.
func TestClusterOwnerUnreachable(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	a, b := nodes[0], nodes[1]
	id := idOwnedBy(t, "b", []string{"a", "b"})
	b.srv.Close()

	resp, err := http.Get(a.srv.URL + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("owner-down request: %d, want 503: %s", resp.StatusCode, body)
	}
	if own := resp.Header.Get(OwnerHeader); !strings.HasPrefix(own, "b ") {
		t.Errorf("503 owner header %q does not name owner b", own)
	}
	var doc map[string]string
	if err := json.Unmarshal(body, &doc); err != nil || doc["owner"] != "b" {
		t.Errorf("503 body does not identify the owner: %s", body)
	}
	if v := metric(t, a.srv.URL, "sdo_cluster_proxy_errors_total"); v < 1 {
		t.Errorf("proxy error not counted: %v", v)
	}
}

// TestClusterScatterGatherListing: GET /sweeps merges every member's
// jobs; a down member degrades the listing honestly via the Partial
// header rather than failing it.
func TestClusterScatterGatherListing(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, nil)
	a, b, c := nodes[0], nodes[1], nodes[2]

	stA := postSweep(t, a.srv.URL, smallReq())
	stB := postSweep(t, b.srv.URL, smallReq())
	get(t, a.srv.URL+"/sweeps/"+stA.ID+"/export", 200)
	get(t, b.srv.URL+"/sweeps/"+stB.ID+"/export", 200)

	listIDs := func(body []byte) []string {
		var sts []simsvc.Status
		if err := json.Unmarshal(body, &sts); err != nil {
			t.Fatalf("listing: %v: %s", err, body)
		}
		var ids []string
		for _, st := range sts {
			ids = append(ids, st.ID)
		}
		return ids
	}

	body, hdr := get(t, c.srv.URL+"/sweeps", 200)
	ids := listIDs(body)
	if len(ids) != 2 || !(ids[0] == stA.ID || ids[1] == stA.ID) || !(ids[0] == stB.ID || ids[1] == stB.ID) {
		t.Fatalf("full listing from c: %v, want {%s, %s}", ids, stA.ID, stB.ID)
	}
	if p := hdr.Get(PartialHeader); p != "" {
		t.Errorf("healthy cluster listing marked partial: %q", p)
	}
	// The listing c fanned out is counted on c; the hopped requests it
	// sent a and b are answered locally and are not.
	if v, va := metric(t, c.srv.URL, "sdo_cluster_scatter_listings_total"), metric(t, a.srv.URL, "sdo_cluster_scatter_listings_total"); v != 1 || va != 0 {
		t.Errorf("scatter listings: c %v, a %v; want 1 and 0", v, va)
	}

	c.srv.Close()
	body, hdr = get(t, a.srv.URL+"/sweeps", 200)
	ids = listIDs(body)
	if len(ids) != 2 {
		t.Fatalf("listing with c down: %v, want both jobs", ids)
	}
	if p := hdr.Get(PartialHeader); p != "c" {
		t.Errorf("partial header %q, want c", p)
	}
}

// stealReq is one sampled cell per workload. Each builds its workload's
// sampling plan first, which is what lets gateBuilds hold it mid-run.
func stealReq() harness.Request {
	req := smallReq()
	req.Workloads = []string{"exchange2_r", "deepsjeng_r", "xz_r", "mcf_r", "gcc_r", "x264_r", "leela_r", "namd_r"}
	req.Variants = []string{"hybrid"}
	req.SimMode = "sampled"
	req.MaxInstrs = 6000
	req.SampleIntervalInstrs = 2000
	return req
}

// gateBuilds parks tn's next hold sampling-plan builds until release is
// called: the cells that started them stop mid-run on an event the test
// controls, then carry on. entered gets one signal per parked build.
func gateBuilds(t *testing.T, tn *testNode, hold int32) (entered <-chan struct{}, release func()) {
	t.Helper()
	g := tn.gate
	g.hold.Store(hold)
	var once sync.Once
	release = func() { once.Do(func() { g.hold.Store(0); close(g.open) }) }
	t.Cleanup(release)
	return g.entered, release
}

// stealPair is a two-node cluster for the steal tests: owner a has one
// worker, thief b has thiefWorkers. Both steal loops run with an hour-long
// fallback tick (mut may shorten it), so whatever gets stolen was stolen
// on a hint or an idle edge; and a parks every plan build until the
// returned release, so its one worker stays inside its first cell and
// everything behind it is there for b to take.
func stealPair(t *testing.T, thiefWorkers int, mut func(i int, ncfg *Config)) (a, b *testNode, release func()) {
	t.Helper()
	nodes := startCluster(t, []string{"a", "b"}, func(i int, scfg *simsvc.Config, ncfg *Config) {
		scfg.Workers = 1
		if i == 1 {
			scfg.Workers = thiefWorkers
		}
		ncfg.StealInterval = time.Hour
		if mut != nil {
			mut(i, ncfg)
		}
	})
	_, release = gateBuilds(t, nodes[0], 1<<30)
	return nodes[0], nodes[1], release
}

func soloGolden(t *testing.T, req harness.Request) []byte {
	t.Helper()
	solo := startCluster(t, []string{"solo"}, nil)[0]
	st := postSweep(t, solo.srv.URL, req)
	golden, _ := get(t, solo.srv.URL+"/sweeps/"+st.ID+"/export", 200)
	return golden
}

// waitFor polls until ok reports true, for at most a minute.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !ok(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitMetric polls a node's /metrics until name reaches min.
func waitMetric(t *testing.T, tn *testNode, name string, min float64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("node %s: %s to reach %v", tn.id, name, min),
		func() bool { return metric(t, tn.srv.URL, name) >= min })
}

// TestClusterWorkStealing: the owner's hint wakes the thief, which drains
// the owner's queue with the fallback ticker an hour away; the owner's
// export stays byte-identical to a standalone run and the steal metrics
// account for the transfer.
func TestClusterWorkStealing(t *testing.T) {
	req := stealReq()
	golden := soloGolden(t, req)
	a, b, release := stealPair(t, 1, nil)

	st := postSweep(t, a.srv.URL, req)
	waitMetric(t, b, "sdo_cluster_steals_total", 1)
	release()
	export, _ := get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", 200)
	if !bytes.Equal(export, golden) {
		t.Fatalf("stolen sweep export differs from standalone golden (%d vs %d bytes)",
			len(export), len(golden))
	}
	if v := metric(t, b.srv.URL, "sdo_cluster_steal_hints_total"); v != 1 {
		t.Errorf("thief received %v hints, want 1 (one per submitted job)", v)
	}
	stolen := metric(t, a.srv.URL, "sdo_cluster_cells_stolen_total")
	if stolen < 1 {
		t.Errorf("owner leased out %v cells, want >= 1", stolen)
	}
	if v := metric(t, a.srv.URL, "sdo_cluster_steal_completions_total"); v != stolen {
		t.Errorf("owner accepted %v steal completions for %v leases", v, stolen)
	}
	if v := metric(t, a.srv.URL, "sdo_cluster_lease_expiries_total"); v != 0 {
		t.Errorf("%v leases expired, want 0", v)
	}
}

// TestClusterStealOnIdleEdge: a thief that is busy when the hint arrives
// steals as soon as its own job finishes — the freed slot wakes it, with
// no second hint and no tick.
func TestClusterStealOnIdleEdge(t *testing.T) {
	a, b, releaseA := stealPair(t, 1, nil)
	// b's own one-cell job parks in its plan build.
	entered, releaseB := gateBuilds(t, b, 1)
	own := stealReq()
	own.Workloads = []string{"perlbench_r"}
	stB := postSweep(t, b.srv.URL, own)
	<-entered

	stA := postSweep(t, a.srv.URL, stealReq())
	waitMetric(t, b, "sdo_cluster_steal_hints_total", 1)
	if v := metric(t, a.srv.URL, "sdo_cluster_cells_stolen_total"); v != 0 {
		t.Fatalf("busy thief claimed %v cells", v)
	}

	releaseB()
	waitMetric(t, b, "sdo_cluster_steals_total", 1)
	if v := metric(t, b.srv.URL, "sdo_cluster_steal_hints_total"); v != 1 {
		t.Errorf("thief needed %v hints, want the one it was busy for", v)
	}
	releaseA()
	get(t, b.srv.URL+"/sweeps/"+stB.ID+"/export", 200)
	get(t, a.srv.URL+"/sweeps/"+stA.ID+"/export", 200)
}

// TestClusterStealNoBatchBarrier: a two-slot thief with one stolen cell
// stuck keeps stealing on its other slot; nothing waits for a batch.
func TestClusterStealNoBatchBarrier(t *testing.T) {
	req := stealReq()
	golden := soloGolden(t, req)
	a, b, release := stealPair(t, 2, nil)
	// The first of the thief's stolen cells parks in its plan build.
	entered, releaseStuck := gateBuilds(t, b, 1)

	st := postSweep(t, a.srv.URL, req)
	<-entered
	waitMetric(t, b, "sdo_cluster_steals_total", 2)
	releaseStuck()
	release()
	export, _ := get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", 200)
	if !bytes.Equal(export, golden) {
		t.Fatalf("stolen sweep export differs from standalone golden (%d vs %d bytes)",
			len(export), len(golden))
	}
}

// TestClusterStealLostHint: a hint that fails is counted and not retried;
// the fallback ticker — 20 ms here, nothing else can wake this thief —
// finds the work.
func TestClusterStealLostHint(t *testing.T) {
	a, b, release := stealPair(t, 1, func(i int, ncfg *Config) {
		if i == 1 {
			ncfg.StealInterval = 20 * time.Millisecond
		}
	})
	b.swap.wrap(func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/wake" {
				http.Error(w, "hint lost", http.StatusInternalServerError)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})

	st := postSweep(t, a.srv.URL, stealReq())
	waitMetric(t, b, "sdo_cluster_steals_total", 1)
	waitMetric(t, a, "sdo_cluster_steal_errors_total", 1)
	if v := metric(t, b.srv.URL, "sdo_cluster_steal_hints_total"); v != 0 {
		t.Errorf("thief counted %v hints, want 0 (the endpoint was failing)", v)
	}
	release()
	get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", 200)
}

// TestClusterNodesBuildIdenticalArtifacts: nodes share results, never
// checkpoints or sampling plans — each builds its own, and because both
// builds are deterministic every node's export of a functional-warmup
// sweep and of a sampled sweep is byte-identical to a standalone run's.
func TestClusterNodesBuildIdenticalArtifacts(t *testing.T) {
	ckptReq := smallReq()
	ckptReq.WarmupMode = "functional"
	planReq := smallReq()
	planReq.SimMode = "sampled"

	nodes := startCluster(t, []string{"a", "b"}, nil)
	for _, tn := range nodes {
		// No result travels either — every peer lookup is answered with
		// misses — so the second node to see a request has to simulate
		// it, and build for it, like the first.
		tn.swap.wrap(func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/cache/lookup" {
					fabric.ServeLookup(w, r, func(string) ([]byte, bool) { return nil, false })
					return
				}
				inner.ServeHTTP(w, r)
			})
		})
	}

	for _, tc := range []struct {
		name, built string
		req         harness.Request
	}{
		{"checkpoint", "sdo_checkpoints_captured_total", ckptReq},
		{"plan", "sdo_sample_plans_built_total", planReq},
	} {
		golden := soloGolden(t, tc.req)
		for _, tn := range nodes {
			st := postSweep(t, tn.srv.URL, tc.req)
			export, _ := get(t, tn.srv.URL+"/sweeps/"+st.ID+"/export", 200)
			if !bytes.Equal(export, golden) {
				t.Fatalf("%s: node %s export differs from standalone golden (%d vs %d bytes)",
					tc.name, tn.id, len(export), len(golden))
			}
			if v := metric(t, tn.srv.URL, tc.built); v < float64(len(tc.req.Workloads)) {
				t.Errorf("%s: node %s has %s = %v, want one build per workload", tc.name, tn.id, tc.built, v)
			}
		}
	}
}

// TestClusterStealLeaseExpiryReclamation is the crash-safety pillar: a
// thief claims cells and dies (never completes), and after the lease
// TTL the owner reclaims and finishes them itself — the sweep still
// completes exactly.
func TestClusterStealLeaseExpiryReclamation(t *testing.T) {
	// Sampled cells, so the owner's one worker parks inside its first
	// cell's plan build and the other three stay queued for the claim.
	req := smallReq()
	req.SimMode = "sampled"
	req.MaxInstrs = 6000
	req.SampleIntervalInstrs = 2000

	golden := soloGolden(t, req)

	nodes := startCluster(t, []string{"a"}, func(i int, scfg *simsvc.Config, ncfg *Config) {
		scfg.Workers = 1
		scfg.StealLeaseTTL = 250 * time.Millisecond
	})
	a := nodes[0]
	entered, release := gateBuilds(t, a, 1)

	st := postSweep(t, a.srv.URL, req)
	<-entered
	// The "thief" claims queued cells over the wire and is then
	// SIGKILLed: no completion ever arrives.
	body, _ := get(t, a.srv.URL+"/cluster/steal?max=3&thief=doomed", 200)
	release()
	var cells []simsvc.StolenCell
	if err := json.Unmarshal(body, &cells); err != nil {
		t.Fatalf("steal claim: %v: %s", err, body)
	}
	if len(cells) != 3 {
		t.Fatalf("claimed %d cells while the one worker holds the first, want the other 3", len(cells))
	}

	export, _ := get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", 200)
	if !bytes.Equal(export, golden) {
		t.Fatalf("post-reclamation export differs from golden (%d vs %d bytes)",
			len(export), len(golden))
	}
	expired := metric(t, a.srv.URL, "sdo_cluster_lease_expiries_total")
	if expired < 1 {
		t.Errorf("lease expiries = %v, want >= 1 (dead thief must be reclaimed)", expired)
	}
	// Each expiry is one steal-lease-expired event in the flight recorder.
	if n := flightKinds(t, a.srv.URL)["steal-lease-expired"]; float64(n) != expired {
		t.Errorf("flight recorder holds %d steal-lease-expired events for %v expiries", n, expired)
	}
	if v := metric(t, a.srv.URL, "sdo_cluster_steal_completions_total"); v != 0 {
		t.Errorf("steal completions = %v, want 0 (thief never reported back)", v)
	}
}

// peerState is how tn's fabric client sees the member at url.
func peerState(t *testing.T, tn *testNode, url string) (state string, fails int) {
	t.Helper()
	for _, ps := range tn.svc.Health().Peers {
		if ps.URL == url {
			return ps.State, ps.ConsecutiveFails
		}
	}
	t.Fatalf("node %s has no peer %s", tn.id, url)
	return "", 0
}

// TestClusterFrozenMemberIsSkipped: a member that accepts connections and
// never answers is one peer failure to every kind of traffic. Once cache
// lookups (and the prober) have opened its breaker, listings, wake hints
// and steal rounds skip it instead of each waiting out an RPC timeout on
// it, and it rejoins once it answers again.
func TestClusterFrozenMemberIsSkipped(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, func(i int, scfg *simsvc.Config, ncfg *Config) {
		switch i {
		case 0:
			// a gives up on a lookup quickly; its prober keeps striking c, so
			// the breaker cannot half-open in the middle of the test. Workers
			// to spare: a steal round always has a free slot left to offer c.
			scfg.Workers = 8
			scfg.PeerTimeout = 50 * time.Millisecond
			scfg.PeerProbeInterval = 10 * time.Millisecond
		case 1:
			// b's one worker parks inside its first cell's lookup against c
			// until c thaws; the cells behind it are there to steal.
			scfg.Workers = 1
			scfg.PeerTimeout = time.Minute
		}
	})
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Freeze c, counting the cluster-layer requests (listings, claims,
	// hints, completions) that reach it.
	thawed := make(chan struct{})
	var thawOnce sync.Once
	thaw := func() { thawOnce.Do(func() { close(thawed) }) }
	t.Cleanup(thaw) // before the nodes shut down: they wait for parked requests
	var clusterReqs atomic.Int64
	c.swap.wrap(func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/sweeps" || strings.HasPrefix(r.URL.Path, "/cluster/") {
				clusterReqs.Add(1)
			}
			select {
			case <-thawed:
				inner.ServeHTTP(w, r)
			case <-r.Context().Done():
			}
		})
	})
	var hintsToB atomic.Int64
	b.swap.wrap(func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/wake" {
				hintsToB.Add(1)
			}
			inner.ServeHTTP(w, r)
		})
	})

	// Every cell of a sweep on a consults c and times out: three misses
	// open the breaker. Wait until the strikes have pushed its backoff past
	// anything this test could take.
	st := postSweep(t, a.srv.URL, smallReq())
	get(t, a.srv.URL+"/sweeps/"+st.ID+"/export", 200)
	waitFor(t, "lookups to open c's breaker on a and the prober's strikes to hold it open", func() bool {
		state, fails := peerState(t, a, c.srv.URL)
		return state == "open" && fails >= 8
	})
	before := clusterReqs.Load()

	// A listing names c as missing without asking it.
	start := time.Now()
	resp, err := (&http.Client{Timeout: 2 * time.Second}).Get(a.srv.URL + "/sweeps")
	if err != nil {
		t.Fatalf("listing with c frozen: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if d := time.Since(start); resp.StatusCode != 200 || d > time.Second {
		t.Errorf("listing with c frozen: status %d after %v, want 200 in < 1s", resp.StatusCode, d)
	}
	if p := resp.Header.Get(PartialHeader); p != "c" {
		t.Errorf("partial header %q, want c", p)
	}

	// A hint round reaches b and skips c; the unsent hint is still counted.
	a.node.hintPeers()
	a.node.wg.Wait()
	if n := hintsToB.Load(); n != 1 {
		t.Errorf("b received %d hints, want 1", n)
	}
	if v := metric(t, a.srv.URL, "sdo_cluster_steal_errors_total"); v != 1 {
		t.Errorf("a counted %v lost hints, want 1 (the one to c)", v)
	}

	// A steal round still claims from b, and skips c with a slot to spare.
	req := smallReq()
	req.Workloads = []string{"xz_r", "mcf_r", "gcc_r", "x264_r"}
	req.Variants = []string{"hybrid"}
	stB := postSweep(t, b.srv.URL, req)
	start = time.Now()
	a.node.steal("")
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("steal round with c frozen took %v", d)
	}
	waitMetric(t, a, "sdo_cluster_steals_total", 1)
	if free := a.svc.IdleWorkers(); free <= 0 {
		t.Errorf("a has %d idle workers: the steal round never got as far as c", free)
	}
	if n := clusterReqs.Load(); n != before {
		t.Errorf("%d cluster requests reached frozen c through its open breaker", n-before)
	}

	// Thawed, c answers a's next probe and is a member again; b's parked
	// cell gets its answer and the sweep finishes.
	thaw()
	waitFor(t, "a probe to close c's breaker on a after the thaw", func() bool {
		state, _ := peerState(t, a, c.srv.URL)
		return state == "ok"
	})
	get(t, b.srv.URL+"/sweeps/"+stB.ID+"/export", 200)
	if _, hdr := get(t, a.srv.URL+"/sweeps", 200); hdr.Get(PartialHeader) != "" {
		t.Errorf("listing after the thaw still partial: %q", hdr.Get(PartialHeader))
	}
}
