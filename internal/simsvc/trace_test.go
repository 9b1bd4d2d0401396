package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// traceDoc fetches a job's trace document directly from the service.
func traceDoc(t *testing.T, j *Job) *trace.Doc {
	t.Helper()
	jt := j.Trace()
	if jt == nil {
		t.Fatalf("job %s has no trace", j.ID)
	}
	return jt.Doc()
}

// findSpans returns every span named name anywhere in the tree.
func findSpans(n *trace.Node, name string) []*trace.Node {
	if n == nil {
		return nil
	}
	var out []*trace.Node
	if n.Name == name {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// checkAttributionSums asserts the exact-sum invariant for one cell: the
// known phases plus Other equal the cell's reported wall clock.
func checkAttributionSums(t *testing.T, cell trace.CellDoc) {
	t.Helper()
	a := cell.Attribution
	if a == nil {
		t.Fatalf("cell %s has no attribution", cell.Cell)
	}
	sum := a.QueueUS + a.CacheUS + a.PeerUS + a.AwaitUS + a.PlanUS + a.CheckpointUS + a.SimulateUS + a.OtherUS
	if sum != a.WallUS {
		t.Errorf("cell %s: phase sum %dus != wall %dus (%+v)", cell.Cell, sum, a.WallUS, a)
	}
	if a.WallUS <= 0 {
		t.Errorf("cell %s: non-positive wall clock %dus", cell.Cell, a.WallUS)
	}
}

// TestTraceFailedCell checks the span tree of a sweep whose Hybrid cells
// panic: every cell has the queue/cache phase chain and exactly one
// simulate span — a failed cell runs once — the failed cells' roots say
// status=failed, and every cell's attribution sums to its wall clock.
func TestTraceFailedCell(t *testing.T) {
	s := newService(t, Config{Workers: 2, Trace: true})
	defer s.Shutdown(context.Background())
	var panics atomic.Int64
	s.wrapPolicy = panicking(func(spec harness.RunSpec) bool { return spec.Variant == core.Hybrid }, &panics)

	j, err := s.Submit(longReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != JobDegraded || st.Failed != 2 || panics.Load() != 2 {
		t.Fatalf("%d panics, status %+v; want 2 panics and a degraded job", panics.Load(), st)
	}
	doc := traceDoc(t, j)
	if len(doc.Cells) != 4 {
		t.Fatalf("trace has %d cells, want 4", len(doc.Cells))
	}
	failed := 0
	for _, cell := range doc.Cells {
		root := cell.Spans
		if root == nil || root.Name != trace.RootName {
			t.Fatalf("cell %s root = %+v", cell.Cell, root)
		}
		if len(findSpans(root, trace.PhaseQueue)) != 1 {
			t.Errorf("cell %s missing queue-wait span", cell.Cell)
		}
		if len(findSpans(root, trace.PhaseCache)) != 1 {
			t.Errorf("cell %s missing cache-lookup span", cell.Cell)
		}
		// None were cached in a fresh service: each cell simulated, once.
		if n := len(findSpans(root, trace.PhaseSimulate)); n != 1 {
			t.Fatalf("cell %s has %d simulate spans, want 1", cell.Cell, n)
		}
		want := "done"
		if strings.Contains(cell.Cell, "/Hybrid/") {
			want = "failed"
			failed++
		}
		if got := root.Attrs["status"]; got != want {
			t.Errorf("cell %s root status = %q, want %q", cell.Cell, got, want)
		}
		checkAttributionSums(t, cell)
	}
	if failed != 2 {
		t.Fatalf("%d Hybrid cells in the trace, want 2", failed)
	}
}

// TestTraceOffByteIdentical is the zero-cost-off contract: with tracing
// disabled the export carries no attribution and is byte-identical to
// the traced service's export once the opt-in attribution annotation is
// stripped — tracing must observe, never perturb.
func TestTraceOffByteIdentical(t *testing.T) {
	off := newService(t, Config{Workers: 2})
	defer off.Shutdown(context.Background())
	on := newService(t, Config{Workers: 2, Trace: true})
	defer on.Shutdown(context.Background())

	jOff := submitAndWait(t, off, smallReq())
	jOn := submitAndWait(t, on, smallReq())

	resOff, err := jOff.Results()
	if err != nil {
		t.Fatal(err)
	}
	var bufOff bytes.Buffer
	if err := resOff.WriteJSON(&bufOff); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(bufOff.Bytes(), []byte("attribution")) {
		t.Fatal("untraced export mentions attribution")
	}
	if jOff.Trace() != nil {
		t.Fatal("untraced job has a trace")
	}

	resOn, err := jOn.Results()
	if err != nil {
		t.Fatal(err)
	}
	exOn := resOn.Export()
	for i := range exOn.Runs {
		if exOn.Runs[i].Attribution == nil {
			t.Fatalf("traced run %s/%s has no attribution", exOn.Runs[i].Workload, exOn.Runs[i].Variant)
		}
		exOn.Runs[i].Attribution = nil
	}
	stripped, err := json.Marshal(exOn)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(resOff.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripped, plain) {
		t.Error("traced export differs from untraced beyond the attribution annotation")
	}
}

// TestTraceHTTP exercises the HTTP surface: the trace endpoint JSON and
// chrome forms, its absence on an untraced server, and /debug/flight.
func TestTraceHTTP(t *testing.T) {
	s := newService(t, Config{Workers: 2, Trace: true})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	j := submitAndWait(t, s, smallReq())

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := get("/sweeps/" + j.ID + "/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s: %s", resp.Status, body)
	}
	var doc trace.Doc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace document is not JSON: %v", err)
	}
	if doc.ID != j.ID || len(doc.Cells) != 4 {
		t.Fatalf("trace doc = id %s, %d cells", doc.ID, len(doc.Cells))
	}
	for _, cell := range doc.Cells {
		checkAttributionSums(t, cell)
	}

	resp, body = get("/sweeps/" + j.ID + "/trace?format=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET chrome trace: %s", resp.Status)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	resp, _ = get("/sweeps/no-such/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace of unknown sweep: %s, want 404", resp.Status)
	}

	resp, body = get("/debug/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flight: %s", resp.Status)
	}
	var flight struct {
		Build struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
		Events []struct {
			Class string `json:"class"`
			Kind  string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &flight); err != nil {
		t.Fatalf("flight document is not JSON: %v", err)
	}
	if flight.Build.GoVersion == "" {
		t.Error("flight recorder missing build info")
	}
	kinds := make(map[string]bool)
	for _, e := range flight.Events {
		kinds[e.Kind] = true
	}
	if !kinds["sweep-submitted"] || !kinds["sweep-finished"] {
		t.Errorf("flight recorder missing sweep lifecycle events: %v", kinds)
	}

	// An untraced server must not expose the trace route at all.
	plain := newService(t, Config{Workers: 1})
	defer plain.Shutdown(context.Background())
	srv2 := httptest.NewServer(plain.Handler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/sweeps/sweep-1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced server trace route: %s, want 404", resp2.Status)
	}
	// ... but the flight recorder is always on.
	resp3, err := http.Get(srv2.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("untraced server /debug/flight: %s, want 200", resp3.Status)
	}
}

// TestSlowCellNote checks the p99 slow-cell detector: silent until the
// duration histogram has enough samples, silent for in-distribution
// cells, one counted warning (with a ClassTrace flight event) for a
// cell beyond the p99.
func TestSlowCellNote(t *testing.T) {
	s := newService(t, Config{Workers: 1, Trace: true})
	defer s.Shutdown(context.Background())
	k := harness.Key{Workload: "exchange2_r"}

	s.noteSlowCell(k, time.Hour, nil)
	if n := metric(t, s, "sdo_slow_cells_total"); n != 0 {
		t.Fatalf("slow cell flagged with an empty histogram: %v", n)
	}
	for i := 0; i < slowCellMinSamples; i++ {
		s.runDur.Observe(0.010)
	}
	s.noteSlowCell(k, 5*time.Millisecond, nil)
	if n := metric(t, s, "sdo_slow_cells_total"); n != 0 {
		t.Fatalf("in-distribution cell flagged: %v", n)
	}
	s.noteSlowCell(k, time.Second, nil)
	if n := metric(t, s, "sdo_slow_cells_total"); n != 1 {
		t.Fatalf("slow cell not flagged: %v", n)
	}
	found := false
	for _, e := range s.flight.Events() {
		if e.Kind == "slow-cell" && e.Class == obs.ClassTrace {
			found = true
		}
	}
	if !found {
		t.Error("slow-cell event missing from the flight recorder")
	}
}

// TestTraceSampledCell: a sampled cell builds its plan under a plan phase,
// and its simulate phase holds one interval span per representative it
// ran — each with its window — then one reconstruct span.
func TestTraceSampledCell(t *testing.T) {
	s := newService(t, Config{Workers: 1, Trace: true})
	defer s.Shutdown(context.Background())
	req := specReq("exchange2_r", "unsafe")
	req.SimMode = "sampled"
	req.MaxInstrs = 6000
	req.SampleIntervalInstrs = 2000
	doc := traceDoc(t, submitAndWait(t, s, req))
	if len(doc.Cells) != 1 {
		t.Fatalf("trace has %d cells, want 1", len(doc.Cells))
	}
	cell := doc.Cells[0]
	sims := findSpans(cell.Spans, trace.PhaseSimulate)
	if len(findSpans(cell.Spans, trace.PhasePlan)) != 1 || len(sims) != 1 {
		t.Fatalf("cell %s: want one plan and one simulate phase: %+v", cell.Cell, cell.Spans)
	}
	intervals := findSpans(sims[0], trace.PhaseInterval)
	if len(intervals) == 0 {
		t.Fatalf("sampled cell %s simulated no interval", cell.Cell)
	}
	for _, iv := range intervals {
		if iv.Attrs["start"] == "" || iv.Attrs["len"] == "" {
			t.Errorf("interval span %+v, want start and len", iv)
		}
	}
	if n := len(findSpans(sims[0], trace.PhaseReconstruct)); n != 1 {
		t.Errorf("sampled cell %s has %d reconstruct spans, want 1", cell.Cell, n)
	}
	checkAttributionSums(t, cell)
}

// TestTraceCachedCell checks a repeated sweep's cells trace as cache
// hits: no simulate span, a cache-lookup with hit=true, and a sane
// attribution.
func TestTraceCachedCell(t *testing.T) {
	s := newService(t, Config{Workers: 2, Trace: true})
	defer s.Shutdown(context.Background())
	submitAndWait(t, s, smallReq())
	j := submitAndWait(t, s, smallReq())
	if st := j.Status(); st.Cached != st.Total {
		t.Fatalf("repeat sweep not fully cached: %+v", st)
	}
	doc := traceDoc(t, j)
	for _, cell := range doc.Cells {
		if n := len(findSpans(cell.Spans, trace.PhaseSimulate)); n != 0 {
			t.Errorf("cached cell %s has %d simulate spans", cell.Cell, n)
		}
		caches := findSpans(cell.Spans, trace.PhaseCache)
		if len(caches) != 1 || caches[0].Attrs["hit"] != "true" {
			t.Errorf("cached cell %s cache span = %+v", cell.Cell, caches)
		}
		if got := cell.Spans.Attrs["status"]; got != "cached" {
			t.Errorf("cached cell %s status = %q", cell.Cell, got)
		}
		checkAttributionSums(t, cell)
	}
	if !strings.HasPrefix(j.ID, "sweep-") {
		t.Fatalf("unexpected job id %s", j.ID)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace_doc_keys.golden from the current trace document")

// traceDocKeys collects into out every JSON object key ("key <k>") and
// every span name ("span <n>") of a decoded trace document.
func traceDocKeys(v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			out["key "+k] = true
			if name, ok := c.(string); ok && k == "name" {
				out["span "+name] = true
			}
			traceDocKeys(c, out)
		}
	case []any:
		for _, c := range x {
			traceDocKeys(c, out)
		}
	}
}

// TestTraceDocKeysGolden pins the wire shape of GET /sweeps/{id}/trace
// for a plain traced sweep: the set of JSON keys and span names of a
// two-cell sweep on a fresh one-worker service (both cells simulate, the
// second one queues behind the first). A tracer change that adds, renames
// or drops a key or a span for such a sweep fails here.
func TestTraceDocKeysGolden(t *testing.T) {
	s := newService(t, Config{Workers: 1, Trace: true})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := specReq("exchange2_r", "unsafe")
	req.Variants = []string{"unsafe", "hybrid"}
	j := submitAndWait(t, s, req)
	resp, err := http.Get(srv.URL + "/sweeps/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace document is not JSON: %v", err)
	}
	seen := make(map[string]bool)
	traceDocKeys(doc, seen)
	// The attribution's phase fields are omitempty and in whole
	// microseconds. queue_us is always there — the second cell waits out
	// the first one's whole run on the one worker — but a cache miss can
	// take under 1µs and round cache_us away, so that one key is pinned
	// through the struct tag it is marshalled from instead.
	if !seen["key cache_us"] {
		f, _ := reflect.TypeOf(trace.Attribution{}).FieldByName("CacheUS")
		if tag := f.Tag.Get("json"); tag != "cache_us,omitempty" {
			t.Errorf("Attribution.CacheUS json tag = %q, want cache_us,omitempty", tag)
		}
		seen["key cache_us"] = true
	}
	var lines []string
	for k := range seen {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "trace_doc_keys.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace document keys drifted from %s:\n got:\n%s want:\n%s", golden, got, want)
	}
}
