package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// caches lists every tag array of h, private and shared.
func (h *Hierarchy) caches() []*Cache {
	return append([]*Cache{h.l1i, h.l1d, h.l2}, h.shared.slices...)
}

// TestStateRoundTrip: after random traffic that includes flushes and
// external invalidations, so some lines have gone invalid again,
// State → SetState → State is the identity, and the restored tag arrays
// equal the snapshotted ones entry for entry — whether the restore lands
// in a new hierarchy or in one that holds traffic of its own.
func TestStateRoundTrip(t *testing.T) {
	sliced := DefaultConfig()
	sliced.L3Slices = 2
	noL2TLB := DefaultConfig()
	noL2TLB.TLB.L2Entries = 0
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "two L3 slices": sliced, "no L2 TLB": noL2TLB} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				src := NewHierarchy(cfg)
				randomTraffic(src, rand.New(rand.NewSource(seed)), 10_000)
				var invalidated uint64
				for _, c := range src.caches() {
					invalidated += c.InvalidationsIn
					if c.Contents() != c.valid {
						t.Fatalf("seed %d: %d valid lines, counted %d", seed, c.Contents(), c.valid)
					}
				}
				if invalidated == 0 {
					t.Fatalf("seed %d: the traffic invalidated no line", seed)
				}
				want := src.State()
				used := NewHierarchy(cfg)
				randomTraffic(used, rand.New(rand.NewSource(seed+100)), 10_000)
				for _, h := range []*Hierarchy{NewHierarchy(cfg), used} {
					if err := h.SetState(want); err != nil {
						t.Fatal(err)
					}
					if got := h.State(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: State after SetState differs from the snapshot", seed)
					}
					for i, c := range h.caches() {
						if s := src.caches()[i]; !reflect.DeepEqual(c.lines, s.lines) || c.valid != s.valid {
							t.Fatalf("seed %d: cache %d's tag array differs from the snapshotted one", seed, i)
						}
					}
				}
			}
		})
	}
}

// TestSetStateRejectsMalformed: a snapshot whose parallel arrays do not
// all fit the geometry, or whose stored lines are out of place or
// invalid, is rejected with an error instead of being copied in part
// over what the hierarchy held.
func TestSetStateRejectsMalformed(t *testing.T) {
	cfg := DefaultConfig()
	warm := NewHierarchy(cfg)
	randomTraffic(warm, rand.New(rand.NewSource(1)), 10_000)
	if s := warm.State(); len(s.L1D.Lines) < 2 || len(s.L2.Lines) == 0 || len(s.L3[0].Lines) == 0 || s.TLB.L2 == nil {
		t.Fatal("the warm hierarchy is too empty to corrupt")
	}
	for _, tc := range []struct {
		name    string
		corrupt func(s *HierState)
	}{
		{"cache position missing", func(s *HierState) { s.L1D.Index = s.L1D.Index[:len(s.L1D.Index)-1] }},
		{"cache line missing", func(s *HierState) { s.L1D.Lines = s.L1D.Lines[:len(s.L1D.Lines)-1] }},
		{"cache position past the array", func(s *HierState) {
			s.L2.Index[len(s.L2.Index)-1] = uint32(cfg.L2.SizeBytes / LineBytes)
		}},
		{"cache positions descending", func(s *HierState) { s.L1D.Index[0], s.L1D.Index[1] = s.L1D.Index[1], s.L1D.Index[0] }},
		{"cache position repeated", func(s *HierState) { s.L1D.Index[1] = s.L1D.Index[0] }},
		{"cache line invalid", func(s *HierState) { s.L1I.Lines[0].Valid = false }},
		{"L3 line invalid", func(s *HierState) { s.L3[0].Lines[0] = LineState{} }},
		{"L3 slice missing", func(s *HierState) { s.L3 = nil }},
		{"TLB pages short", func(s *HierState) { s.TLB.L1.Pages = s.TLB.L1.Pages[:len(s.TLB.L1.Pages)-1] }},
		{"TLB valid bits short", func(s *HierState) { s.TLB.L1.Valid = s.TLB.L1.Valid[:len(s.TLB.L1.Valid)-1] }},
		{"TLB stamps short", func(s *HierState) { s.TLB.L1.LRUAt = s.TLB.L1.LRUAt[:len(s.TLB.L1.LRUAt)-1] }},
		{"L2 TLB valid bits short", func(s *HierState) { s.TLB.L2.Valid = s.TLB.L2.Valid[:len(s.TLB.L2.Valid)-1] }},
		{"L2 TLB missing", func(s *HierState) { s.TLB.L2 = nil }},
		{"DRAM rows short", func(s *HierState) { s.DRAM.OpenRow = s.DRAM.OpenRow[:len(s.DRAM.OpenRow)-1] }},
		{"DRAM valid bits short", func(s *HierState) { s.DRAM.RowValid = s.DRAM.RowValid[:len(s.DRAM.RowValid)-1] }},
	} {
		s := warm.State()
		tc.corrupt(&s)
		if err := NewHierarchy(cfg).SetState(s); err == nil {
			t.Errorf("%s: SetState accepted the snapshot", tc.name)
		}
	}
}
