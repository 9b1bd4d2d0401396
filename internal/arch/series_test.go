package arch

import (
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// TestCaptureSeriesSnapshotsByReference pins what Warmer.Snapshot's
// by-reference memory image promises: every checkpoint of a series is
// bit-identical to a fresh Capture at its boundary — the stores that
// follow a snapshot never reach it — while a page the program did not
// write between two snapshots is held once, by both.
func TestCaptureSeriesSnapshotsByReference(t *testing.T) {
	// testProgram stores one word per 64-byte line, upwards from 0x2000:
	// 6 instructions per line, 64 lines per page, 8 pages in all.
	boundaries := []uint64{300, 1500, 2700}
	p, init := testProgram()
	data := isa.NewMemory()
	init(data)
	series := CaptureSeries(p, data, mem.DefaultConfig(), bpred.DefaultConfig(), pipeline.DefaultConfig().CodeBase, boundaries)
	for i, b := range boundaries {
		if !reflect.DeepEqual(series[i], captureTest(b)) {
			t.Errorf("series checkpoint at %d differs from a fresh capture", b)
		}
	}
	for i := 1; i < len(series); i++ {
		shared, copied := 0, 0
		for pn, prev := range series[i-1].Mem {
			cur := series[i].Mem[pn]
			switch {
			case &cur[0] == &prev[0]:
				shared++
			case reflect.DeepEqual(cur, prev):
				t.Errorf("page %#x is unchanged between boundaries %d and %d but was copied", pn, boundaries[i-1], boundaries[i])
			default:
				copied++
			}
		}
		if shared == 0 || copied == 0 {
			t.Errorf("boundaries %d → %d: %d pages shared, %d copied; want some of each", boundaries[i-1], boundaries[i], shared, copied)
		}
	}
}
