package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// randomTraffic drives every state-changing entry point of h from a
// seeded source: normal and oblivious accesses, translation, flushes and
// external invalidations, the shadow paths when a spec mode is on, the
// warm paths, and a whole-state overwrite.
func randomTraffic(h *Hierarchy, rng *rand.Rand, n int) {
	addr := func() uint64 { return uint64(rng.Intn(1<<14)) * LineBytes / 2 } // 512 KB: spills L1 and L2
	var now, seq uint64
	for i := 0; i < n; i++ {
		now += uint64(rng.Intn(40))
		seq++
		switch a := addr(); rng.Intn(14) {
		case 0, 1:
			h.Load(now, a)
		case 2:
			h.Store(now, a)
		case 3:
			h.FetchAccess(now, a)
		case 4:
			h.OblLoad(now, a, L1+Level(rng.Intn(4)))
		case 5:
			h.Translate(now, a<<8)
		case 6:
			h.Flush(a)
		case 7:
			h.Invalidate(a)
		case 8:
			h.WarmLoad(a)
			h.WarmStore(addr())
			h.WarmFetch(addr())
			h.WarmTranslate(a << 8)
		case 9, 10:
			if h.SpecModeActive() != SpecOff {
				h.SpecTranslate(now, a<<8, seq)
				h.SpecLoad(now, a, seq)
			}
		case 11:
			if h.SpecModeActive() != SpecOff {
				h.SpecLoad(now, a, seq)
				h.CommitSpec(a, seq)
			}
		case 12:
			if h.SpecModeActive() != SpecOff {
				h.SquashSpec(seq - uint64(rng.Intn(8)))
			}
		case 13:
			if rng.Intn(50) == 0 {
				src := NewHierarchy(h.Config())
				for j := 0; j < 500; j++ {
					src.WarmLoad(addr())
				}
				if err := h.SetState(src.State()); err != nil {
					panic(err)
				}
			}
		}
	}
}

// TestResetEqualsNew is the property the hierarchy pool in internal/core
// rests on: whatever a hierarchy went through, Reset leaves it
// indistinguishable from a freshly built one.
func TestResetEqualsNew(t *testing.T) {
	sliced := DefaultConfig()
	sliced.L3Slices = 2
	noL2TLB := DefaultConfig()
	noL2TLB.TLB.L2Entries = 0
	for _, tc := range []struct {
		name string
		cfg  Config
		mode SpecMode
	}{
		{"default", DefaultConfig(), SpecOff},
		{"safespec shadow", DefaultConfig(), SpecShadow},
		{"specbox label", DefaultConfig(), SpecLabel},
		{"two L3 slices", sliced, SpecShadow},
		{"no L2 TLB", noL2TLB, SpecOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := NewHierarchy(tc.cfg)
			h := NewHierarchy(tc.cfg)
			for seed := int64(1); seed <= 2; seed++ {
				h.SetSpecMode(tc.mode)
				h.SetObserver(obs.NewRecorder(obs.ClassAll))
				h.OnInvalidate = func(uint64) {}
				randomTraffic(h, rand.New(rand.NewSource(seed)), 10_000)
				if seed == 1 && reflect.DeepEqual(h, fresh) {
					t.Fatal("traffic left no trace: the test drives nothing")
				}
				h.Reset()
				if !reflect.DeepEqual(h, fresh) {
					t.Fatalf("seed %d: Reset() differs from NewHierarchy", seed)
				}
			}
		})
	}
}
