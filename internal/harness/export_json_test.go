package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/workload"
)

// encoderJSON is the rendering IndentedJSON replaces, kept as its
// oracle: json.Encoder with a two-space indent.
func encoderJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// ledgerResults is a synthetic sweep of the benchmark ledger's grid —
// four kernels × the Table II variants × both attack models, 64 runs —
// with varied counters, built without simulating.
func ledgerResults(tb testing.TB) *Results {
	tb.Helper()
	opt := DefaultOptions()
	opt.Workloads = nil
	for _, name := range []string{"mcf_r", "xalancbmk_r", "x264_r", "deepsjeng_r"} {
		wl, err := workload.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		opt.Workloads = append(opt.Workloads, wl)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	n := func(max uint64) uint64 { return rng.Uint64N(max) }
	res := &Results{Opt: opt, Runs: make(map[Key]*core.Result)}
	for _, k := range opt.Cells() {
		var r core.Result
		r.Variant, r.Model = k.Variant, k.Model
		r.Cycles, r.Committed = 40_000+n(60_000), opt.MaxInstrs
		for c := range r.Squashes {
			r.Squashes[c] = n(300)
		}
		r.DelayedLoads, r.OblIssued, r.OblFail = n(5_000), n(8_000), n(900)
		r.Validations, r.Exposures, r.ValidationStall = n(4_000), n(4_000), n(9_000)
		r.PredPrecise, r.PredImprecise, r.PredInaccurate = n(6_000), n(1_500), n(900)
		r.ImprecisionCycles = n(20_000)
		res.Runs[k] = &r
	}
	return res
}

// BenchmarkWriteJSON renders the synthetic ledger grid's export: the
// aggregates and the JSON rendering a warm node pays per sweep.
func BenchmarkWriteJSON(b *testing.B) {
	res := ledgerResults(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := res.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzExportJSON: IndentedJSON renders any export as json.Encoder with
// SetIndent("", "  ") does, or fails where it fails. x and y fill every
// float (the seeds cross encoding/json's 'f'/'e' boundary and hold -0,
// subnormals, NaN and ±Inf), s every string (quotes, backslashes, <>&,
// control bytes, invalid UTF-8), and shape's bits choose nil, empty or
// filled runs, rows, interval series and attribution blocks.
func FuzzExportJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y float64, s string, shape uint8) {
		ex := fuzzExport(x, y, s, shape)
		got, gotErr := IndentedJSON(ex)
		want, wantErr := encoderJSON(ex)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("IndentedJSON error %v, json.Encoder error %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("IndentedJSON:\n%s\njson.Encoder:\n%s", got, want)
		}
	})
}

// fuzzExport builds the export FuzzExportJSON renders.
func fuzzExport(x, y float64, s string, shape uint8) Export {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	ex := Export{MaxInstrs: uint64(shape) << 40}
	if bit(6) {
		ex.IntervalCycles = 1000
	}
	switch shape & 3 {
	case 1:
		ex.Runs = []ExportRun{}
	case 2, 3:
		run := ExportRun{Workload: s, Variant: s + "\x00", Model: "<" + s + ">", Cycles: 1, IPC: x, NormTime: y}
		switch {
		case bit(2):
			run.Intervals = []core.IntervalPoint{{Cycle: 1, IPC: x, SquashPKI: y}, {}}
		case bit(3):
			run.Intervals, run.ROBOccHist, run.LQOccHist = []core.IntervalPoint{}, []uint64{}, []uint64{0, 1 << 63}
		}
		if bit(4) {
			run.Attribution = &trace.Attribution{WallUS: -1, OtherUS: int64(shape)}
		}
		ex.Runs = append(ex.Runs, run)
		if shape&3 == 3 {
			ex.Runs = append(ex.Runs, ExportRun{})
		}
	}
	if bit(5) {
		ex.Figure6 = []Fig6Row{{Model: s, Variant: s, NormTime: x}}
		ex.Figure7 = []Fig7Row{{TotalPct: x, Inaccurate: y, Other: -x}}
		ex.Figure8 = []Fig8Row{{SquashesPerKIns: y, NormTime: x}}
		ex.TableIII = []T3Row{{Precision: x, Accuracy: y}}
		ex.Summary = []SumRow{{Model: s, OverheadPct: x, VsSTTLd: y, VsSTTLdFp: x * y}}
	} else if bit(7) {
		ex.Figure6, ex.Summary = []Fig6Row{}, []SumRow{}
	}
	return ex
}
