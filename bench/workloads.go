package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// sizes fixes how much work one iteration of each workload is. The
// default sizes run paper-default cells (50k detailed warm-up + 60k
// measured instructions, all 8 Table II variants, both attack models) on
// four of the 14 kernels, one per memory behaviour — the contract's time
// cap (about 35 s per run including set-up) cannot hold the full grid,
// which takes 45 s on one node and longer on three. Every cell kept is a cell of Figure 6, so the
// per-benchmark rows of expected_results.txt still check it.
type sizes struct {
	Kernels      []string `json:"kernels"`
	WarmupInstrs uint64   `json:"warmup_instrs"`
	MaxInstrs    uint64   `json:"max_instrs"`
	// PaperDefault marks the instruction counts as the product defaults:
	// the request omits them and the export is checked against
	// expected_results.txt.
	PaperDefault bool `json:"paper_default"`
	// SetupProbes is how many extra start/stop cycles a cold workload
	// makes before timing, so that setup_s is a median of several.
	SetupProbes int `json:"setup_probes"`
	// MaxResubmits and MaxPeerNodes cap the iterations of fig6-warm and
	// fig6-peerhit: the server keeps every finished job, so an unbounded
	// closed loop would measure a registry of a different size on a
	// faster commit.
	MaxResubmits int `json:"max_resubmits"`
	MaxPeerNodes int `json:"max_peer_nodes"`
	// SampleSeeds is how many sampling seeds (1..SampleSeeds) sampled-cold
	// runs, one per iteration. The sampling seed changes the clustering and
	// with it the work and the memory (90 to 160 MB across seeds), so every
	// run uses the same set and --seed only orders it: runs with different
	// seeds then do the same work.
	SampleSeeds int `json:"sample_seeds"`
}

var defaultSizes = sizes{
	// mcf_r: DRAM-bound pointer chase. xalancbmk_r: L2-resident table.
	// x264_r: strided L1 misses. deepsjeng_r: L1-resident, branchy.
	Kernels:      []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"},
	WarmupInstrs: 50_000, MaxInstrs: 60_000, PaperDefault: true,
	SetupProbes: 4, MaxResubmits: 1000, MaxPeerNodes: 100, SampleSeeds: 3,
}

var smokeSizes = sizes{
	Kernels:      []string{"mcf_r", "deepsjeng_r"},
	WarmupInstrs: 4_000, MaxInstrs: 4_000,
	SetupProbes: 1, MaxResubmits: 20, MaxPeerNodes: 2, SampleSeeds: 2,
}

const (
	tableIIVariants = 8
	attackModels    = 2
	singleWorkers   = 2 // -workers of a one-node workload: this box has 2 cores
	// hangLimit fails a workload that has not finished long after its
	// sizing time (the slowest takes about 25 s), inside the contract's
	// 180 s per run.
	hangLimit = 150 * time.Second
)

// wlRun is one run of one workload: its inputs, the samples it collects
// and the outcome of its output checks.
type wlRun struct {
	name    string
	seed    int64
	seconds float64
	sz      sizes
	f       *fleet
	want    map[string]fig6Table
	// ref is the fig6-cold export of the same invocation, when that
	// workload ran first: warm, peer-hit and 3-node exports must equal it
	// byte for byte. first is the first export of this run; later ones
	// must equal it.
	ref   []byte
	first []byte

	cells     int
	workers   int // simulation workers across the workload's nodes
	setups    []float64
	walls     []float64
	submits   []float64
	attempted int
	failed    int
	failures  []string
	layer     map[string]float64
}

func (w *wlRun) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 20 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one output check.
func (w *wlRun) check(ok bool, format string, args ...any) {
	w.attempted++
	if !ok {
		w.fail(format, args...)
	}
}

// do sends one request and reads the whole response. A transport error
// or a non-2xx status counts as a failed request and is returned.
func (w *wlRun) do(ctx context.Context, parent int, method, url string, body []byte) ([]byte, http.Header, error) {
	sp := w.f.spans.Start(method+" "+urlPath(url), parent)
	defer w.f.spans.End(sp)
	w.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		w.fail("%s %s: %v", method, url, err)
		return nil, nil, err
	}
	resp, err := w.f.client.Do(req)
	if err != nil {
		w.fail("%s %s: %v", method, url, err)
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if err != nil {
		w.fail("%s %s: %v", method, url, err)
		return nil, nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return b, resp.Header, nil
}

// body renders the sweep request: the kernel list plus extra fields. At
// paper-default sizes the instruction counts are left to the product's
// defaults.
func (w *wlRun) body(extra map[string]any) []byte {
	m := map[string]any{"workloads": w.sz.Kernels}
	if !w.sz.PaperDefault {
		m["warmup_instrs"] = w.sz.WarmupInstrs
		m["max_instrs"] = w.sz.MaxInstrs
	}
	for k, v := range extra {
		m[k] = v
	}
	b, _ := json.Marshal(m) // map keys are emitted sorted: same seed, same bytes
	return b
}

type sweepOut struct {
	id     string
	export []byte
	via    string
}

// sweep is the timed unit of every workload: POST the request to one
// node, then read the blocking export through another (the same one
// outside cluster3-cold). The wall clock runs from the POST being sent to
// the last byte of the export.
func (w *wlRun) sweep(ctx context.Context, post, get *node, body []byte) (sweepOut, error) {
	sp := w.f.spans.Start("sweep", 0)
	defer w.f.spans.End(sp)
	t0 := time.Now()
	st, _, err := w.do(ctx, sp, http.MethodPost, post.url+"/sweeps", body)
	if err != nil {
		return sweepOut{}, err
	}
	submitted := time.Since(t0)
	var status struct {
		ID    string `json:"id"`
		Total int    `json:"total_runs"`
	}
	if err := json.Unmarshal(st, &status); err != nil || status.ID == "" {
		w.fail("POST /sweeps: unreadable status %q", st)
		return sweepOut{}, fmt.Errorf("POST /sweeps: unreadable status %q", st)
	}
	ex, hdr, err := w.do(ctx, sp, http.MethodGet, get.url+"/sweeps/"+status.ID+"/export", nil)
	if err != nil {
		return sweepOut{}, err
	}
	w.walls = append(w.walls, time.Since(t0).Seconds())
	w.submits = append(w.submits, submitted.Seconds()*1e3)
	w.check(status.Total == w.cells, "sweep %s has %d cells, want %d", status.ID, status.Total, w.cells)
	return sweepOut{id: status.ID, export: ex, via: hdr.Get("X-Sdo-Cluster-Via")}, nil
}

// checkExport runs the output checks every export gets: it holds every
// cell, it equals the other exports of the same grid, and (detailed,
// paper-default cells) its Figure 6 numbers equal expected_results.txt.
func (w *wlRun) checkExport(b []byte, detailed bool) *sweepExport {
	ex, err := parseExport(b)
	w.check(err == nil, "%v", err)
	if err != nil {
		return nil
	}
	w.attempted += w.cells
	if len(ex.Runs) != w.cells {
		// A degraded sweep exports only the workloads without failures.
		w.failed += max(w.cells-len(ex.Runs), 1)
		w.failures = append(w.failures, fmt.Sprintf("export has %d runs, want %d", len(ex.Runs), w.cells))
	}
	canon := b
	if w.f.trace {
		canon, err = stripAttribution(b)
		w.check(err == nil, "%v", err)
	}
	if detailed { // sampled exports differ with the sampling seed
		if w.first == nil {
			w.first = canon
		}
		w.check(bytes.Equal(canon, w.first), "export differs from the first export of this run")
	}
	if w.ref != nil && detailed && !w.f.trace {
		w.check(bytes.Equal(b, w.ref), "export differs from the fig6-cold export of this invocation")
	}
	if detailed && w.sz.PaperDefault {
		n, bad := checkFig6(ex, w.want)
		w.attempted += n
		w.failed += len(bad)
		w.failures = append(w.failures, bad...)
		w.check(n == len(ex.Runs)+len(ex.Figure6), "only %d of %d export rows have a reference in expected_results.txt",
			n, len(ex.Runs)+len(ex.Figure6))
	}
	return ex
}

// more reports whether a workload's loop should run another iteration:
// until the measuring time is used up or the iteration cap is reached,
// and at least once.
func (w *wlRun) more(start time.Time, n, limit int) bool {
	if n == 0 {
		return true
	}
	return time.Since(start).Seconds() < w.seconds && (limit == 0 || n < limit)
}

// single starts one stand-alone node on a fresh cache directory (or the
// one given) and returns how long it took to become healthy, in seconds.
func (w *wlRun) single(ctx context.Context, id, dir string, args ...string) (*node, string, float64, error) {
	t0 := time.Now()
	var err error
	if dir == "" {
		if dir, err = w.f.scratch(id); err != nil {
			return nil, "", 0, err
		}
	}
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, "", 0, err
	}
	argv := append([]string{"-cache", filepath.Join(dir, "cache.json"), "-workers", fmt.Sprint(singleWorkers)}, args...)
	n, err := w.f.start(ctx, id, addrs[0], argv...)
	if err != nil {
		return nil, "", 0, err
	}
	return n, dir, time.Since(t0).Seconds(), nil
}

// stopTimed stops a node and records what its shutdown cost and left
// behind (per-layer metrics).
func (w *wlRun) stopTimed(n *node, dir string) {
	t0 := time.Now()
	w.f.stop(n)
	w.layer["simsvc.cache_persist_ms"] = time.Since(t0).Seconds() * 1e3
	if st, err := os.Stat(filepath.Join(dir, "cache.json")); err == nil {
		w.layer["simsvc.cache_file_kb"] = float64(st.Size()) / 1024
	}
}

// runCold is fig6-cold and sampled-cold: every iteration starts one node
// on an empty cache, submits the grid and reads the export. bodies holds
// the request of each iteration; a single body is repeated until the
// measuring time is used up.
func (w *wlRun) runCold(ctx context.Context, bodies [][]byte, detailed bool) error {
	for i := 0; i < w.sz.SetupProbes; i++ {
		n, _, dt, err := w.single(ctx, "probe", "")
		if err != nil {
			return err
		}
		w.setups = append(w.setups, dt)
		w.f.stop(n)
	}
	limit := 0
	if len(bodies) > 1 {
		limit = len(bodies)
	}
	var errPcts []float64
	w.f.markTimed()
	start := time.Now()
	for i := 0; w.more(start, i, limit); i++ {
		n, dir, dt, err := w.single(ctx, "cold", "")
		if err != nil {
			return err
		}
		w.setups = append(w.setups, dt)
		out, err := w.sweep(ctx, n, n, bodies[i%len(bodies)])
		if err != nil {
			return err
		}
		ex := w.checkExport(out.export, detailed)
		if !detailed && ex != nil && w.sz.PaperDefault {
			pct, refs := fig6ErrPct(ex, w.want)
			errPcts = append(errPcts, pct)
			w.check(refs > 0 && pct < sampledErrLimitPct,
				"sampled norm_time is %.2f%% off expected_results.txt on average (%d references), limit %v%%", pct, refs, sampledErrLimitPct)
		}
		m, err := w.f.scrape(ctx, n)
		if err != nil {
			return err
		}
		if err := w.nodeLayers(ctx, m, n, out.id); err != nil {
			return err
		}
		w.stopTimed(n, dir)
	}
	if len(errPcts) > 0 {
		var sum float64
		for _, p := range errPcts {
			sum += p
		}
		w.layer["harness.sampled_fig6_err_pct"] = sum / float64(len(errPcts))
	}
	return nil
}

// sampledErrLimitPct fails sampled-cold when the sampled estimate drifts
// this far from the detailed reference on average; the repository's own
// tuning test pins 6 % per kernel.
const sampledErrLimitPct = 6.0

// primed is the shared set-up of fig6-warm and fig6-peerhit: run the grid
// once on an empty node, shut it down so it persists its cache, and
// restart it on that file. All of it counts as set-up.
func (w *wlRun) primed(ctx context.Context, body []byte) (*node, string, error) {
	t0 := time.Now()
	n, dir, _, err := w.single(ctx, "prime", "")
	if err != nil {
		return nil, "", err
	}
	out, err := w.sweep(ctx, n, n, body)
	if err != nil {
		return nil, "", err
	}
	w.checkExport(out.export, true)
	w.stopTimed(n, dir)
	n, _, load, err := w.single(ctx, "warm", dir)
	if err != nil {
		return nil, "", err
	}
	w.layer["simsvc.cache_load_ms"] = load * 1e3
	w.setups = append(w.setups, time.Since(t0).Seconds())
	w.walls, w.submits = nil, nil // the priming sweep is set-up, not a sample
	return n, dir, nil
}

// runWarm is fig6-warm: closed-loop resubmits of the grid to a node that
// already holds every result.
func (w *wlRun) runWarm(ctx context.Context, body []byte) error {
	n, dir, err := w.primed(ctx, body)
	if err != nil {
		return err
	}
	w.f.markTimed()
	start := time.Now()
	var last string
	for i := 0; w.more(start, i, w.sz.MaxResubmits); i++ {
		out, err := w.sweep(ctx, n, n, body)
		if err != nil {
			return err
		}
		w.checkExport(out.export, true)
		last = out.id
	}
	m, err := w.f.scrape(ctx, n)
	if err != nil {
		return err
	}
	w.check(m["sdo_runs_executed_total"] == 0, "warm node simulated %v cells, want 0", m["sdo_runs_executed_total"])
	w.check(m["sdo_cache_hits_total"] == float64(w.cells*len(w.walls)),
		"warm node served %v cache hits, want %d", m["sdo_cache_hits_total"], w.cells*len(w.walls))
	w.layer["simsvc.resubmit_ms_p95"] = percentile(w.walls, 95) * 1e3
	if err := w.nodeLayers(ctx, m, n, last); err != nil {
		return err
	}
	w.stopTimed(n, dir)
	return nil
}

// runPeerHit is fig6-peerhit: every iteration starts an empty node that
// peers with the warm one, so each cell is a fabric lookup.
func (w *wlRun) runPeerHit(ctx context.Context, body []byte) error {
	warm, _, err := w.primed(ctx, body)
	if err != nil {
		return err
	}
	w.f.markTimed()
	start := time.Now()
	for i := 0; w.more(start, i, w.sz.MaxPeerNodes); i++ {
		n, ndir, _, err := w.single(ctx, "peer", "", "-peers", warm.url)
		if err != nil {
			return err
		}
		out, err := w.sweep(ctx, n, n, body)
		if err != nil {
			return err
		}
		w.checkExport(out.export, true)
		m, err := w.f.scrape(ctx, n)
		if err != nil {
			return err
		}
		w.check(m["sdo_runs_executed_total"] == 0, "peering node simulated %v cells, want 0", m["sdo_runs_executed_total"])
		w.check(m["sdo_peer_hits_total"] == float64(w.cells), "peering node got %v peer hits, want %d", m["sdo_peer_hits_total"], w.cells)
		if err := w.nodeLayers(ctx, m, n, out.id); err != nil {
			return err
		}
		w.stopTimed(n, ndir)
	}
	w.f.stop(warm)
	return nil
}

// runCluster is cluster3-cold: three one-worker nodes with default work
// stealing; the request goes to b and the export is read through a.
func (w *wlRun) runCluster(ctx context.Context, body []byte) error {
	ids := []string{"a", "b", "c"}
	startAll := func() ([]*node, []string, error) {
		t0 := time.Now()
		addrs, err := freeAddrs(len(ids))
		if err != nil {
			return nil, nil, err
		}
		var members []string
		for i, id := range ids {
			members = append(members, id+"=http://"+addrs[i])
		}
		var nodes []*node
		var dirs []string
		for i, id := range ids {
			dir, err := w.f.scratch(id)
			if err != nil {
				return nil, nil, err
			}
			n, err := w.f.start(ctx, id, addrs[i], "-cache", filepath.Join(dir, "cache.json"), "-workers", "1",
				"-cluster-peers", strings.Join(members, ","), "-node-id", id)
			if err != nil {
				return nil, nil, err
			}
			nodes, dirs = append(nodes, n), append(dirs, dir)
		}
		w.setups = append(w.setups, time.Since(t0).Seconds())
		return nodes, dirs, nil
	}
	for i := 0; i < w.sz.SetupProbes; i++ {
		nodes, _, err := startAll()
		if err != nil {
			return err
		}
		for _, n := range nodes {
			w.f.stop(n)
		}
	}
	w.f.markTimed()
	start := time.Now()
	for i := 0; w.more(start, i, 0); i++ {
		nodes, dirs, err := startAll()
		if err != nil {
			return err
		}
		a, b := nodes[0], nodes[1]
		out, err := w.sweep(ctx, b, a, body)
		if err != nil {
			return err
		}
		w.checkExport(out.export, true)
		w.check(out.via == "b", "export through a was answered by %q, want the owner b", out.via)
		m, err := w.f.scrape(ctx, nodes...)
		if err != nil {
			return err
		}
		expiries := m["sdo_cluster_lease_expiries_total"]
		w.check(expiries == 0, "%v steal leases expired, want 0", expiries)
		w.layer["cluster.cells_stolen_frac"] = m["sdo_cluster_cells_stolen_total"] / float64(w.cells)
		w.layer["cluster.steal_completions"] = m["sdo_cluster_steal_completions_total"]
		w.layer["cluster.lease_expiries"] = expiries
		if w.f.trace {
			if err := w.proxyOverhead(ctx, a, b, out.id); err != nil {
				return err
			}
		}
		if err := w.nodeLayers(ctx, m, b, out.id); err != nil {
			return err
		}
		for j, n := range nodes {
			if n == b {
				w.stopTimed(n, dirs[j]) // the owner's shutdown and cache file are the ones reported
			} else {
				w.f.stop(n)
			}
		}
	}
	return nil
}

// proxyOverhead times a status GET through the non-owner a against the
// same GET at the owner b: the cost of the cluster's proxy hop.
func (w *wlRun) proxyOverhead(ctx context.Context, a, b *node, id string) error {
	sp := w.f.spans.Start("cluster.proxy_overhead", 0)
	defer w.f.spans.End(sp)
	const n = 100
	var via, direct []float64
	for i := 0; i < n; i++ {
		for _, t := range []struct {
			n   *node
			out *[]float64
		}{{a, &via}, {b, &direct}} {
			t0 := time.Now()
			if _, _, err := w.do(ctx, sp, http.MethodGet, t.n.url+"/sweeps/"+id, nil); err != nil {
				return err
			}
			*t.out = append(*t.out, time.Since(t0).Seconds()*1e3)
		}
	}
	w.layer["cluster.proxy_overhead_ms"] = median(via) - median(direct)
	return nil
}

// nodeLayers collects the per-layer numbers the servers themselves
// report after a sweep: cache and peer ratios from m, the /metrics of the
// sweep's nodes summed, and on a traced run the phase breakdown of the
// sweep from the owner's GET /sweeps/{id}/trace plus the latency of
// re-reading the finished export.
func (w *wlRun) nodeLayers(ctx context.Context, m map[string]float64, owner *node, id string) error {
	w.layer["simsvc.cache_hit_ratio"] = ratio(m["sdo_cache_hits_total"], m["sdo_cache_hits_total"]+m["sdo_cache_misses_total"])
	w.layer["fabric.peer_hit_ratio"] = ratio(m["sdo_peer_hits_total"], m["sdo_peer_hits_total"]+m["sdo_peer_misses_total"])
	if !w.f.trace {
		return nil
	}
	sp := w.f.spans.Start("simsvc.layers", 0)
	defer w.f.spans.End(sp)
	t0 := time.Now()
	if _, _, err := w.do(ctx, sp, http.MethodGet, owner.url+"/sweeps/"+id+"/export", nil); err != nil {
		return err
	}
	w.layer["simsvc.export_ms"] = time.Since(t0).Seconds() * 1e3
	b, _, err := w.do(ctx, sp, http.MethodGet, owner.url+"/sweeps/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	var doc struct {
		Cells []struct {
			Attribution struct {
				WallUS     float64 `json:"wall_us"`
				QueueUS    float64 `json:"queue_us"`
				PeerUS     float64 `json:"peer_us"`
				SimulateUS float64 `json:"simulate_us"`
				OtherUS    float64 `json:"other_us"`
			} `json:"attribution"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("GET /sweeps/%s/trace: %w", id, err)
	}
	w.check(len(doc.Cells) == w.cells, "trace of %s has %d cells, want %d", id, len(doc.Cells), w.cells)
	var queue, peer, sim []float64
	var wall, other float64
	for _, c := range doc.Cells {
		at := c.Attribution
		queue = append(queue, at.QueueUS/1e3)
		sim = append(sim, at.SimulateUS/1e3)
		if at.PeerUS > 0 {
			peer = append(peer, at.PeerUS)
		}
		wall += at.WallUS
		other += at.OtherUS
	}
	if len(doc.Cells) > 0 {
		w.layer["simsvc.phase.queue_wait_ms_p50"] = median(queue)
		w.layer["simsvc.phase.simulate_ms_p50"] = median(sim)
		w.layer["simsvc.phase.simulate_ms_p95"] = percentile(sim, 95)
		w.layer["simsvc.phase.other_frac"] = ratio(other, wall)
	}
	if len(peer) > 0 {
		w.layer["fabric.peer_lookup_us_p50"] = median(peer)
	}
	return nil
}

// urlPath is the path of an absolute http:// URL.
func urlPath(url string) string {
	_, path, _ := strings.Cut(strings.TrimPrefix(url, "http://"), "/")
	return "/" + path
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// variantNames asks a node for every registered protection scheme, so
// sampled-cold covers the whole zoo without the benchmark hard-coding it.
func (w *wlRun) variantNames(ctx context.Context) ([]string, error) {
	n, _, _, err := w.single(ctx, "variants", "")
	if err != nil {
		return nil, err
	}
	defer w.f.stop(n)
	b, _, err := w.do(ctx, 0, http.MethodGet, n.url+"/variants", nil)
	if err != nil {
		return nil, err
	}
	var vs []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(b, &vs); err != nil || len(vs) == 0 {
		return nil, fmt.Errorf("GET /variants: unreadable list %q", b)
	}
	var names []string
	for _, v := range vs {
		names = append(names, v.Name)
	}
	return names, nil
}

// run executes the workload under the hang limit and stops every node.
func (w *wlRun) run(parent context.Context) error {
	ctx, cancel := context.WithTimeout(parent, hangLimit)
	defer cancel()
	defer w.f.close()
	w.layer = map[string]float64{}
	w.cells = len(w.sz.Kernels) * tableIIVariants * attackModels
	w.workers = singleWorkers
	var err error
	switch w.name {
	case "fig6-cold":
		err = w.runCold(ctx, [][]byte{w.body(nil)}, true)
	case "fig6-warm":
		err = w.runWarm(ctx, w.body(nil))
	case "fig6-peerhit":
		err = w.runPeerHit(ctx, w.body(nil))
	case "cluster3-cold":
		w.workers = 3
		err = w.runCluster(ctx, w.body(nil))
	case "sampled-cold":
		var variants []string
		if variants, err = w.variantNames(ctx); err == nil {
			w.cells = len(w.sz.Kernels) * len(variants) * attackModels
			var bodies [][]byte
			for _, i := range rand.New(rand.NewSource(w.seed)).Perm(w.sz.SampleSeeds) {
				bodies = append(bodies, w.body(map[string]any{
					"sim_mode": "sampled", "sample_seed": i + 1, "variants": variants}))
			}
			err = w.runCold(ctx, bodies, false)
		}
	default:
		err = fmt.Errorf("unknown workload %q", w.name)
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, w.f.liveLogTails())
	}
	return err
}
