package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/simsvc"
)

// newServer starts a real service behind httptest, the exact stack
// sdoserver runs.
func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := simsvc.New(simsvc.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})
	return srv
}

// ctl runs one sdoctl invocation against srv, returning exit code and
// captured stdout/stderr.
func ctl(t *testing.T, srv *httptest.Server, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(append([]string{"-server", srv.URL}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

func TestSubmitWaitExport(t *testing.T) {
	srv := newServer(t)

	code, out, errw := ctl(t, srv, "submit",
		"-workloads", "exchange2_r", "-variants", "unsafe,hybrid", "-models", "spectre",
		"-instrs", "2000", "-warmup", "1000", "-wait")
	if code != 0 {
		t.Fatalf("submit -wait: exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "submitted sweep-1 (2 runs)") {
		t.Errorf("submit output missing header: %q", out)
	}
	if !strings.Contains(out, "# sweep sweep-1: done (2/2 runs") {
		t.Errorf("progress trailer missing: %q", out)
	}
	// progress on a finished job replays its lines and exits 0.
	code, replay, errw := ctl(t, srv, "progress", "sweep-1")
	if code != 0 || !strings.Contains(replay, "# sweep sweep-1: done (2/2 runs") {
		t.Errorf("progress: exit %d, out %q, stderr %q", code, replay, errw)
	}

	code, out, errw = ctl(t, srv, "export", "sweep-1")
	if code != 0 {
		t.Fatalf("export: exit %d, stderr %q", code, errw)
	}
	var doc struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, out)
	}
	if len(doc.Runs) != 2 {
		t.Errorf("export has %d runs, want 2", len(doc.Runs))
	}
}

func TestSubmitSampled(t *testing.T) {
	srv := newServer(t)
	code, out, errw := ctl(t, srv, "submit",
		"-workloads", "exchange2_r", "-variants", "unsafe", "-models", "spectre",
		"-instrs", "6000", "-warmup", "1000",
		"-sim-mode", "sampled", "-sample-interval", "2000", "-wait")
	if code != 0 {
		t.Fatalf("sampled submit: exit %d, stderr %q stdout %q", code, errw, out)
	}
	if !strings.Contains(out, "done (1/1 runs") {
		t.Errorf("sampled job did not finish: %q", out)
	}
}

func TestListStatusCancelHealthMetrics(t *testing.T) {
	srv := newServer(t)

	if code, out, _ := ctl(t, srv, "list"); code != 0 || !strings.Contains(out, "no sweeps") {
		t.Errorf("empty list: exit %d, out %q", code, out)
	}

	code, _, errw := ctl(t, srv, "submit", "-workloads", "exchange2_r",
		"-variants", "unsafe", "-models", "spectre", "-instrs", "2000", "-wait")
	if code != 0 {
		t.Fatalf("submit: %q", errw)
	}

	if code, out, _ := ctl(t, srv, "list"); code != 0 || !strings.Contains(out, "sweep-1") || !strings.Contains(out, "done") {
		t.Errorf("list: exit %d, out %q", code, out)
	}
	if code, out, _ := ctl(t, srv, "status", "sweep-1"); code != 0 || !strings.Contains(out, `"state": "done"`) {
		t.Errorf("status: exit %d, out %q", code, out)
	}
	// Cancelling a finished job is a 409 — surfaced as a failure.
	if code, _, errw := ctl(t, srv, "cancel", "sweep-1"); code != 1 || !strings.Contains(errw, "already finished") {
		t.Errorf("cancel finished job: exit %d, stderr %q", code, errw)
	}
	if code, out, _ := ctl(t, srv, "health"); code != 0 || !strings.Contains(out, `"status": "ok"`) {
		t.Errorf("health: exit %d, out %q", code, out)
	}
	if code, out, _ := ctl(t, srv, "metrics"); code != 0 || !strings.Contains(out, "sdo_runs_executed_total") {
		t.Errorf("metrics: exit %d, out %q", code, out)
	}
}

func TestVariants(t *testing.T) {
	srv := newServer(t)
	code, out, errw := ctl(t, srv, "variants")
	if code != 0 {
		t.Fatalf("variants: exit %d, stderr %q", code, errw)
	}
	for _, want := range []string{
		"NAME", "DESCRIPTION",
		"Unsafe", "STT{ld}", "Hybrid", "Perfect",
		"SafeSpec", "safespec,safe-spec", "Shadow speculative cache",
		"SpecBox", "invisible to probes until commit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("variants output missing %q:\n%s", want, out)
		}
	}

	// Submitting one of the listed additions by alias works end to end.
	code, out, errw = ctl(t, srv, "submit", "-workloads", "exchange2_r",
		"-variants", "safespec", "-models", "spectre", "-instrs", "2000", "-warmup", "1000", "-wait")
	if code != 0 {
		t.Fatalf("submit safespec: exit %d, stderr %q stdout %q", code, errw, out)
	}
	if !strings.Contains(out, "done (1/1 runs") {
		t.Errorf("safespec sweep did not finish: %q", out)
	}

	// An unknown name is rejected with the valid-scheme list.
	code, _, errw = ctl(t, srv, "submit", "-workloads", "exchange2_r",
		"-variants", "nope", "-instrs", "2000")
	if code != 1 || !strings.Contains(errw, "valid schemes") || !strings.Contains(errw, "SafeSpec") {
		t.Errorf("unknown variant: exit %d, stderr %q", code, errw)
	}
}

// newTracedServer is newServer with sweep tracing on.
func newTracedServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := simsvc.New(simsvc.Config{Workers: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown(context.Background())
	})
	return srv
}

func TestTraceAndFlight(t *testing.T) {
	srv := newTracedServer(t)

	code, _, errw := ctl(t, srv, "submit", "-workloads", "exchange2_r",
		"-variants", "unsafe,hybrid", "-models", "spectre",
		"-instrs", "2000", "-warmup", "1000", "-wait")
	if code != 0 {
		t.Fatalf("submit: %q", errw)
	}

	// Default text rendering: a span tree per cell plus an attribution
	// summary line.
	code, out, errw := ctl(t, srv, "trace", "sweep-1")
	if code != 0 {
		t.Fatalf("trace: exit %d, stderr %q", code, errw)
	}
	for _, want := range []string{"sweep-1", "cell", "queue-wait", "cache-lookup", "simulate", "= wall"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace text missing %q:\n%s", want, out)
		}
	}

	code, out, _ = ctl(t, srv, "trace", "sweep-1", "-format", "json")
	if code != 0 {
		t.Fatalf("trace -format json: exit %d", code)
	}
	var doc struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil || len(doc.Cells) != 2 {
		t.Errorf("trace json: err %v, %d cells, out %q", err, len(doc.Cells), out)
	}

	code, out, _ = ctl(t, srv, "trace", "sweep-1", "-format", "chrome")
	if code != 0 || !strings.Contains(out, "traceEvents") {
		t.Errorf("trace -format chrome: exit %d, out %q", code, out)
	}

	code, out, _ = ctl(t, srv, "flight")
	if code != 0 || !strings.Contains(out, `"build"`) || !strings.Contains(out, "sweep-finished") {
		t.Errorf("flight: exit %d, out %q", code, out)
	}

	if code, _, errw := ctl(t, srv, "trace", "sweep-9"); code != 1 || !strings.Contains(errw, "unknown sweep") {
		t.Errorf("trace of unknown sweep: exit %d, stderr %q", code, errw)
	}
}

func TestBadInvocations(t *testing.T) {
	srv := newServer(t)
	if code, _, _ := ctl(t, srv); code != 2 {
		t.Error("no command should exit 2")
	}
	if code, _, errw := ctl(t, srv, "bogus"); code != 2 || !strings.Contains(errw, "unknown command") {
		t.Errorf("unknown command: exit %d, stderr %q", code, errw)
	}
	if code, _, errw := ctl(t, srv, "status"); code != 2 || !strings.Contains(errw, "missing sweep id") {
		t.Errorf("missing id: exit %d, stderr %q", code, errw)
	}
	if code, _, errw := ctl(t, srv, "status", "sweep-99"); code != 1 || !strings.Contains(errw, "unknown sweep") {
		t.Errorf("unknown sweep: exit %d, stderr %q", code, errw)
	}
	// Server-side validation surfaces as a 400 with the service's message.
	if code, _, errw := ctl(t, srv, "submit", "-workloads", "nope"); code != 1 || !strings.Contains(errw, "unknown workload") {
		t.Errorf("bad workload: exit %d, stderr %q", code, errw)
	}
}
