package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestMachineChromeTraceIsValidJSON runs a whole machine with the Chrome
// trace sink attached and checks the output is a well-formed trace-event
// document of the shape Perfetto / chrome://tracing load.
func TestMachineChromeTraceIsValidJSON(t *testing.T) {
	prog, init := testProgram()
	m := NewMachine(Config{Variant: Hybrid, Model: pipeline.Futuristic}, prog, init)
	var buf bytes.Buffer
	rec := obs.NewRecorder(obs.ClassAll, obs.NewChromeSink(&buf))
	m.SetObserver(rec)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty for a full-class run")
	}
	cats := map[string]bool{}
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Cat == "" {
			t.Fatalf("event %d lacks name/cat: %+v", i, e)
		}
		if e.Phase != "X" && e.Phase != "i" {
			t.Fatalf("event %d: phase %q, want X or i", i, e.Phase)
		}
		cats[e.Cat] = true
	}
	// A Hybrid run commits, issues loads and touches the caches at least.
	for _, want := range []string{"commit", "issue", "cache"} {
		if !cats[want] {
			t.Errorf("no %q events in machine-level trace (got %v)", want, cats)
		}
	}
}

// classCounter counts events by class name.
type classCounter map[string]int

func (c classCounter) Emit(e obs.Event) { c[e.ClassName()]++ }
func (c classCounter) Close() error     { return nil }

// TestEveryPipelineClassEmits: each event class the simulator itself
// produces is emitted by one Hybrid run of an FP kernel under the
// Futuristic model, so a -trace-events mask naming any of them records
// something. (fault, sample and trace are the service's classes.)
func TestEveryPipelineClassEmits(t *testing.T) {
	wl, err := workload.ByName("cactuBSSN_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, init := wl.Build()
	m := NewMachine(Config{Variant: Hybrid, Model: pipeline.Futuristic, MaxInstrs: 5000}, prog, init)
	seen := classCounter{}
	m.SetObserver(obs.NewRecorder(obs.ClassAll, seen))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"rename", "issue", "commit", "squash", "branch", "cache", "dram", "tlb", "sdo", "fp"} {
		if seen[class] == 0 {
			t.Errorf("no %q events from a Hybrid run of %s (got %v)", class, wl.Name, seen)
		}
	}
}

// TestMachineJSONLTraceParses: every line of a machine-level JSONL trace
// is one valid JSON event.
func TestMachineJSONLTraceParses(t *testing.T) {
	prog, init := testProgram()
	m := NewMachine(Config{Variant: Hybrid, Model: pipeline.Spectre}, prog, init)
	var buf bytes.Buffer
	rec := obs.NewRecorder(obs.ClassSDO|obs.ClassSquash, obs.NewJSONLSink(&buf))
	m.SetObserver(rec)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var e struct {
			Class string `json:"class"`
			Kind  string `json:"kind"`
			Cycle uint64 `json:"cycle"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v\n%s", lines, err, sc.Text())
		}
		if e.Class != "sdo" && e.Class != "squash" {
			t.Fatalf("line %d: class %q leaked through an sdo,squash mask", lines, e.Class)
		}
	}
	if lines == 0 {
		t.Fatal("no SDO/squash events from a Hybrid run")
	}
}

// TestTracedRunEquivalence: attaching an observer must not perturb the
// simulation — a traced run and an untraced run of the same machine
// produce bit-identical Results. The memory walk's event emission sits on
// the same code path as the simulation it observes: any effect it had on
// timing or state would show up here as a counter diff.
func TestTracedRunEquivalence(t *testing.T) {
	prog, init := testProgram()
	for _, v := range []Variant{Unsafe, STTLdFp, Hybrid} {
		cfg := Config{Variant: v, Model: pipeline.Futuristic, WarmupInstrs: 200, IntervalCycles: 128}

		plain := NewMachine(cfg, prog, init)
		want, err := plain.Run()
		if err != nil {
			t.Fatal(err)
		}

		traced := NewMachine(cfg, prog, init)
		traced.SetObserver(obs.NewRecorder(obs.ClassAll, obs.NewRingSink(32)))
		got, err := traced.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: tracing perturbed the run:\n traced:   %+v\n untraced: %+v", v, got, want)
		}
		if traced.Regs() != plain.Regs() {
			t.Errorf("%v: tracing perturbed architectural state", v)
		}
	}
}

// TestMachineObserverMaskAndRing: the class mask filters at the machine
// level, and the ring sink keeps the most recent events for postmortems.
func TestMachineObserverMaskAndRing(t *testing.T) {
	prog, init := testProgram()
	m := NewMachine(Config{Variant: Unsafe, Model: pipeline.Spectre}, prog, init)
	ring := obs.NewRingSink(16)
	m.SetObserver(obs.NewRecorder(obs.ClassCommit, ring))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want 16 (committed %d)", len(evs), res.Committed)
	}
	for i, e := range evs {
		if e.ClassName() != "commit" {
			t.Fatalf("event %d: class %q leaked through a commit-only mask", i, e.ClassName())
		}
		if i > 0 && e.Cycle < evs[i-1].Cycle {
			t.Fatalf("ring events out of order: %d after %d", e.Cycle, evs[i-1].Cycle)
		}
	}
}
