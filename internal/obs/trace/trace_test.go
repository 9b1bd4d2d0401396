package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestNilSafety drives the whole API through nil receivers — the
// tracing-off configuration — and checks nothing panics and nothing is
// allocated into a trace.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	jt := tr.StartJob("sweep-1")
	if jt != nil {
		t.Fatalf("nil tracer StartJob = %v, want nil", jt)
	}
	if got := tr.Job("sweep-1"); got != nil {
		t.Fatalf("nil tracer Job = %v, want nil", got)
	}
	ct := jt.StartCell("wl/v/m", time.Now())
	if ct != nil {
		t.Fatalf("nil job StartCell = %v, want nil", ct)
	}
	sp := ct.Root()
	if sp != nil {
		t.Fatalf("nil cell Root = %v, want nil", sp)
	}
	// Every span operation must no-op.
	child := sp.Child("x")
	child.Set("k", "v")
	child.Finish()
	sp.ChildAt("y", time.Now()).finishAt(time.Now())
	ct.Finish()
	if a := ct.Attribution(); a != nil {
		t.Fatalf("nil cell Attribution = %v, want nil", a)
	}
	if n := ct.Node(); n != nil {
		t.Fatalf("nil cell Node = %v, want nil", n)
	}
	if d := jt.Doc(); d != nil {
		t.Fatalf("nil job Doc = %v, want nil", d)
	}
	if s := ct.Cell(); s != "" {
		t.Fatalf("nil cell Cell = %q, want empty", s)
	}
	if s := (&Attribution{}).Summary(); s == "" {
		t.Fatal("zero attribution Summary is empty")
	}
	var nilAtt *Attribution
	if s := nilAtt.Summary(); s != "" {
		t.Fatalf("nil attribution Summary = %q, want empty", s)
	}
}

// TestContextPropagation checks NewContext/FromContext round-trip a span
// and leave the context untouched for a nil span.
func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if got := NewContext(ctx, nil); got != ctx {
		t.Fatal("NewContext(nil span) must return ctx unchanged")
	}
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	tr := New()
	ct := tr.StartJob("sweep-1").StartCell("wl/v/m", time.Now())
	sp := ct.Root()
	if got := FromContext(NewContext(ctx, sp)); got != sp {
		t.Fatalf("FromContext = %v, want %v", got, sp)
	}
}

// TestSpanTree builds a representative cell tree and checks the
// serialized shape and timing.
func TestSpanTree(t *testing.T) {
	tr := New()
	jt := tr.StartJob("sweep-1")
	start := time.Now().Add(-50 * time.Millisecond)
	ct := jt.StartCell("wl/v/m", start)
	q := ct.Root().ChildAt(PhaseQueue, start)
	q.finishAt(start.Add(10 * time.Millisecond))
	sim := ct.Root().Child(PhaseSimulate)
	i1 := sim.Child(PhaseInterval)
	i1.Set("start", "0")
	i1.Finish()
	i2 := sim.Child(PhaseInterval)
	i2.Set("start", "5000")
	i2.Finish()
	sim.Child(PhaseReconstruct).Finish()
	sim.Finish()
	ct.Finish()

	n := ct.Node()
	if n.Name != RootName {
		t.Fatalf("root name = %q, want %q", n.Name, RootName)
	}
	if len(n.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(n.Children))
	}
	if n.Children[0].Name != PhaseQueue || n.Children[0].DurUS < 9_000 {
		t.Fatalf("queue child = %+v, want ~10ms %s", n.Children[0], PhaseQueue)
	}
	simN := n.Children[1]
	if simN.Name != PhaseSimulate || len(simN.Children) != 3 {
		t.Fatalf("simulate child = %+v, want 3 children", simN)
	}
	if simN.Children[0].Attrs["start"] != "0" || simN.Children[1].Attrs["start"] != "5000" {
		t.Fatalf("interval attrs wrong: %+v", simN.Children)
	}
	if n.DurUS < 49_000 {
		t.Fatalf("root duration = %dus, want >= ~50ms", n.DurUS)
	}

	doc := jt.Doc()
	if doc.ID != "sweep-1" || len(doc.Cells) != 1 || doc.Cells[0].Cell != "wl/v/m" {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestAttributionSums checks the exact-sum invariant: wall equals the
// sum of the known phases plus Other, with the reconstruct time derived
// from the nested spans.
func TestAttributionSums(t *testing.T) {
	tr := New()
	base := time.Now().Add(-time.Second)
	ct := tr.StartJob("sweep-1").StartCell("wl/v/m", base)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	span := func(parent *Span, name string, from, to int) *Span {
		s := parent.ChildAt(name, at(from))
		s.finishAt(at(to))
		return s
	}
	span(ct.Root(), PhaseQueue, 0, 100)
	span(ct.Root(), PhaseCache, 100, 110)
	sim := ct.Root().ChildAt(PhaseSimulate, at(120))
	span(sim, PhaseInterval, 120, 300)
	span(sim, PhaseInterval, 300, 700)
	span(sim, PhaseReconstruct, 700, 720)
	sim.finishAt(at(720))
	ct.Root().finishAt(at(1000))

	a := ct.Attribution()
	if a.WallUS != 1_000_000 {
		t.Fatalf("wall = %d, want 1000000", a.WallUS)
	}
	sum := a.QueueUS + a.CacheUS + a.AwaitUS + a.PlanUS + a.CheckpointUS + a.SimulateUS + a.OtherUS
	if sum != a.WallUS {
		t.Fatalf("phase sum %d != wall %d (%+v)", sum, a.WallUS, a)
	}
	if a.QueueUS != 100_000 || a.CacheUS != 10_000 || a.SimulateUS != 600_000 {
		t.Fatalf("phases wrong: %+v", a)
	}
	if a.OtherUS != 290_000 { // 10ms gap cache->simulate + 280ms tail
		t.Fatalf("other = %d, want 290000", a.OtherUS)
	}
	if a.ReconstructUS != 20_000 {
		t.Fatalf("nested counters wrong: %+v", a)
	}
}

// TestJobLRU checks the tracer's retention bound.
func TestJobLRU(t *testing.T) {
	tr := New()
	for i := 0; i <= defaultMaxJobs; i++ {
		tr.StartJob(fmt.Sprintf("sweep-%d", i))
	}
	if tr.Job("sweep-0") != nil {
		t.Fatal("oldest job not evicted")
	}
	for i := 1; i <= defaultMaxJobs; i++ {
		if tr.Job(fmt.Sprintf("sweep-%d", i)) == nil {
			t.Fatalf("recent job sweep-%d evicted", i)
		}
	}
	if n := len(tr.jobs); n != defaultMaxJobs {
		t.Fatalf("%d jobs retained, want %d", n, defaultMaxJobs)
	}
}

// TestWriteChrome checks the Chrome export is valid JSON with one event
// per span and non-negative shifted timestamps.
func TestWriteChrome(t *testing.T) {
	tr := New()
	jt := tr.StartJob("sweep-1")
	base := time.Now()
	ct := jt.StartCell("wl/v/m", base)
	ct.Root().ChildAt(PhaseQueue, base.Add(-time.Second)).Finish() // pre-epoch start
	ct.Root().Child(PhaseSimulate).Finish()
	ct.Finish()

	var buf bytes.Buffer
	if err := jt.Doc().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event ts = %v, want non-negative number", ev["ts"])
		}
	}
}

// TestWriteChromeIsDeterministic: a span's attributes are a map, and the
// Chrome rendering orders them, so one trace renders one byte string.
func TestWriteChromeIsDeterministic(t *testing.T) {
	ct := New().StartJob("sweep-1").StartCell("wl/v/m", time.Now())
	sp := ct.Root().Child(PhaseInterval)
	sp.Set("start", "0")
	sp.Set("len", "5000")
	sp.Set("restored", "true")
	sp.Finish()
	ct.Finish()
	doc := &Doc{ID: "sweep-1", Cells: []CellDoc{{Cell: ct.Cell(), Spans: ct.Node()}}}

	var first bytes.Buffer
	if err := doc.WriteChrome(&first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first.Bytes(), []byte(`wl/v/m len=5000 restored=true start=0`)) {
		t.Fatalf("attributes not rendered in key order:\n%s", first.String())
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := doc.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, buf.String(), first.String())
		}
	}
}

// TestConcurrentSpans hammers one cell trace from several goroutines
// (run with -race).
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	ct := tr.StartJob("sweep-1").StartCell("wl/v/m", time.Now())
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				s := ct.Root().Child(fmt.Sprintf("g%d", g))
				s.Set("i", "x")
				s.Finish()
				ct.Node()
				ct.Attribution()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
