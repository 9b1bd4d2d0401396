package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
)

// equivReq is {mcf_r, lbm_r} × Table II × both models: 32 cells, 4 of
// which share a representative — Unsafe under Futuristic on both kernels,
// and STT{ld+fp} under both models on mcf_r, which has no FP transmitter.
func equivReq() harness.Request {
	req := smallReq()
	req.Workloads = []string{"mcf_r", "lbm_r"}
	req.Variants = nil
	req.Models = nil
	return req
}

// TestEquivalentCellsSimulateOnce: a cell whose representative is another
// cell of the sweep shares that cell's key, so it takes that cell's run
// instead of simulating. The sweep writes one file per representative,
// labelled with the representative's variant and model, the export is
// byte-identical to the CLI's, and a resubmit is one cache hit per cell.
func TestEquivalentCellsSimulateOnce(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Config{Workers: 4, CachePath: dir})
	defer s.Shutdown(context.Background())
	req := equivReq()
	specs, keys := cellKeys(t, s, req)
	if len(specs) != 32 {
		t.Fatalf("%d cells, want 32", len(specs))
	}
	j := submitAndWait(t, s, req)
	if got := metric(t, s, "sdo_runs_executed_total"); got != 28 {
		t.Errorf("executed %v simulations for 32 cells, want 28", got)
	}
	// Of each pair, the cell that comes second joins the other's run, or
	// takes its result once that run is over: a shared run or a cache hit.
	if got := metric(t, s, "sdo_runs_deduped_total") + metric(t, s, "sdo_cache_hits_total"); got != 4 {
		t.Errorf("%v cells coalesced or cached, want 4", got)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 28 {
		t.Errorf("%d entry files for 32 cells (%v), want 28", len(ents), err)
	}
	for i, sp := range specs {
		var e struct{ Result core.Result }
		if err := json.Unmarshal(entryFile(t, dir, keys[i]), &e); err != nil {
			t.Fatal(err)
		}
		if rep := sp.Representative(); e.Result.Variant != rep.Variant || e.Result.Model != rep.Model {
			t.Errorf("%s/%v/%v: file labelled %v/%v, want its representative's %v/%v",
				sp.Workload, sp.Variant, sp.Model, e.Result.Variant, e.Result.Model, rep.Variant, rep.Model)
		}
	}
	cli, err := harness.Run(j.Options())
	if err != nil {
		t.Fatal(err)
	}
	if cli.SharedCells != 4 {
		t.Errorf("CLI shared %d cells, want 4", cli.SharedCells)
	}
	var want bytes.Buffer
	if err := cli.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, j), want.Bytes()) {
		t.Error("service export differs from the CLI's")
	}
	hits := metric(t, s, "sdo_cache_hits_total")
	again := submitAndWait(t, s, req)
	if got := metric(t, s, "sdo_cache_hits_total") - hits; got != 32 {
		t.Errorf("resubmit: %v cache hits, want 32", got)
	}
	if got := metric(t, s, "sdo_runs_executed_total"); got != 28 {
		t.Errorf("resubmit simulated: %v executed, want 28", got)
	}
	if !bytes.Equal(exportBytes(t, again), want.Bytes()) {
		t.Error("resubmitted export differs from the CLI's")
	}
}

// TestGridSimulatesEachRepresentativeOnce: the benchmark ledger's grid
// (four kernels × Table II × both models, at a small budget) on a fresh
// node simulates each distinct representative once and writes one entry
// file for each: 52 for 64 cells.
func TestGridSimulatesEachRepresentativeOnce(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, Config{Workers: 2, CachePath: dir})
	defer s.Shutdown(context.Background())
	req := ledgerReq()
	warmup := uint64(1000)
	req.MaxInstrs, req.WarmupInstrs = 2000, &warmup
	specs, _ := cellKeys(t, s, req)
	reps := make(map[harness.RunSpec]bool)
	for _, sp := range specs {
		reps[sp.Representative()] = true
	}
	if len(specs) != 64 || len(reps) != 52 {
		t.Fatalf("%d cells with %d representatives, want 64 with 52", len(specs), len(reps))
	}
	submitAndWait(t, s, req)
	if got := metric(t, s, "sdo_runs_executed_total"); got != float64(len(reps)) {
		t.Errorf("executed %v simulations for %d representatives", got, len(reps))
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != len(reps) {
		t.Errorf("%d entry files for %d representatives (%v)", len(ents), len(reps), err)
	}
}

// TestSharedFlightOutlivesItsFirstJob: cancelling the only job that
// holds a representative's cell does not abort its run while another
// job's equivalent cell waits on the same flight — that job completes,
// from that one run.
func TestSharedFlightOutlivesItsFirstJob(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())
	// The run parks at its first progress check, so the representative
	// is mid-run while the equivalent cell joins it and while its job dies.
	parked, release := make(chan struct{}, 1), make(chan struct{})
	s.wrapPolicy = parking(parked, release)
	rep := specReq("mcf_r", "unsafe")
	rep.MaxInstrs = 30_000 // long enough to reach its progress checks
	equiv := rep
	equiv.Models = []string{"futuristic"}

	j1, err := s.Submit(rep)
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, parked)
	j2, err := s.Submit(equiv)
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "the equivalent cell to join", 10*time.Second, func() bool {
		return metric(t, s, "sdo_runs_deduped_total") == 1
	})
	j1.TryCancel()
	close(release)
	waitJob(t, j2)
	if st := j2.Status(); st.State != JobDone || st.Completed != 1 {
		t.Fatalf("equivalent cell's job: %+v", st)
	}
	if got := metric(t, s, "sdo_runs_executed_total"); got != 1 {
		t.Errorf("executed %v simulations, want 1", got)
	}
	cli, err := harness.Run(j2.Options())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cli.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, j2), want.Bytes()) {
		t.Error("equivalent cell's export differs from the CLI's")
	}
}

// TestSharedFlightFailureDegradesEveryCell: a representative's run that
// fails fails every cell on its flight the same way, each under its own
// label, and the sweep degrades around both cells exactly as if each had
// failed on its own. The run parks at its first progress check until the
// equivalent cell is on its flight, and only then panics.
func TestSharedFlightFailureDegradesEveryCell(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	defer s.Shutdown(context.Background())
	// Only the representative's run panics: the equivalent cell would
	// succeed if it simulated its own variant and model.
	var panics atomic.Int64
	parked, release := make(chan struct{}, 1), make(chan struct{})
	s.wrapPolicy = func(spec harness.RunSpec, pol harness.RunPolicy) harness.RunPolicy {
		if !isFailingRep(spec) {
			return pol
		}
		return parking(parked, release)(spec, panicking(isFailingRep, &panics)(spec, pol))
	}
	j, err := s.Submit(failingRepReq())
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, parked)
	// Each kernel's Futuristic cell coalesces with its Spectre cell once,
	// whichever comes first: it joins the flight, or hits the cache once
	// the run is over. The representative is parked, so two coalesced
	// cells mean the equivalent cell is on its flight.
	pollUntil(t, "the equivalent cell to join", time.Minute, func() bool {
		return metric(t, s, "sdo_runs_deduped_total")+metric(t, s, "sdo_cache_hits_total") == 2
	})
	close(release)
	waitJob(t, j)
	checkFailingRepDegrades(t, j)
	// One run panicked; both cells failed with it.
	if ev := faultEvents(s); panics.Load() != 1 || ev["cell-failed"] != 2 || metric(t, s, "sdo_cell_panics_total") != 2 {
		t.Errorf("%d panics, %d cell-failed events, sdo_cell_panics_total %v; want 1, 2 and 2",
			panics.Load(), ev["cell-failed"], metric(t, s, "sdo_cell_panics_total"))
	}
}

// TestLateCellRerunsFailedKey is the other order: an equivalent cell that
// arrives after its key's run failed finds neither a flight nor a result,
// so it runs the representative again, which fails the same way, and the
// sweep degrades exactly as when the cell joined the failing run. One
// worker takes the representative's cell first and finishes it before it
// takes the equivalent one.
func TestLateCellRerunsFailedKey(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	var panics atomic.Int64
	s.wrapPolicy = panicking(isFailingRep, &panics)
	j, err := s.Submit(failingRepReq())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	checkFailingRepDegrades(t, j)
	// Two runs panicked, one per mcf_r cell, each failing its own cell.
	// Only exchange2_r's pair coalesces: its second cell hits the cache.
	coalesced := metric(t, s, "sdo_runs_deduped_total") + metric(t, s, "sdo_cache_hits_total")
	if ev := faultEvents(s); panics.Load() != 2 || ev["cell-failed"] != 2 || metric(t, s, "sdo_cell_panics_total") != 2 || coalesced != 1 {
		t.Errorf("%d panics, %d cell-failed events, sdo_cell_panics_total %v, %v cells coalesced or cached; want 2, 2, 2 and 1",
			panics.Load(), ev["cell-failed"], metric(t, s, "sdo_cell_panics_total"), coalesced)
	}
}

// isFailingRep selects mcf_r/Unsafe/Spectre, the representative of
// mcf_r/Unsafe/Futuristic.
func isFailingRep(spec harness.RunSpec) bool {
	return spec.Workload == "mcf_r" && spec.Variant == core.Unsafe && spec.Model == pipeline.Spectre
}

// failingRepReq is {mcf_r, exchange2_r} × Unsafe × both models: the
// representative cell comes first, its equivalent cell second.
func failingRepReq() harness.Request {
	req := smallReq()
	req.Workloads = []string{"mcf_r", "exchange2_r"}
	req.Variants = []string{"unsafe"}
	req.Models = nil
	return req
}

// checkFailingRepDegrades checks j's status after isFailingRep's run
// panicked: degraded, exchange2_r's two cells done, both mcf_r cells
// failed with the one panic.
func checkFailingRepDegrades(t *testing.T, j *Job) {
	t.Helper()
	st := j.Status()
	if st.State != JobDegraded || st.Completed != 2 || st.Failed != 2 {
		t.Fatalf("status %+v, want degraded with 2 completed and 2 failed", st)
	}
	for _, f := range st.Failures {
		if !strings.HasPrefix(f.Cell, "mcf_r/Unsafe/") || f.Kind != "panic" || f.Error != st.Failures[0].Error {
			t.Errorf("failure %+v, want mcf_r/Unsafe under either model, panic, one error", f)
		}
	}
	if st.Failures[0].Cell == st.Failures[1].Cell {
		t.Errorf("failures name one cell twice: %+v", st.Failures)
	}
}
