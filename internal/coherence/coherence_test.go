package coherence

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

func newSys(cores int) *System { return NewSystem(mem.DefaultConfig(), cores) }

func TestColdLoadIsExclusive(t *testing.T) {
	s := newSys(2)
	s.Core(0).Load(0, 0x1000)
	if st := s.LineState(0x1000); st != Exclusive {
		t.Fatalf("state = %v, want E", st)
	}
	if s.Sharers(0x1000) != 1 {
		t.Fatalf("sharers = %#x", s.Sharers(0x1000))
	}
}

func TestStoreIsModified(t *testing.T) {
	s := newSys(2)
	s.Core(0).Store(0, 0x1000)
	if st := s.LineState(0x1000); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestRemoteLoadDowngradesModified(t *testing.T) {
	s := newSys(2)
	s.Core(0).Store(0, 0x1000)
	r := s.Core(1).Load(100, 0x1000)
	if st := s.LineState(0x1000); st != Shared {
		t.Fatalf("state = %v, want S", st)
	}
	if s.Sharers(0x1000) != 0b11 {
		t.Fatalf("sharers = %#b, want 0b11", s.Sharers(0x1000))
	}
	if s.Downgrades != 1 {
		t.Fatalf("downgrades = %d", s.Downgrades)
	}
	// Snoop latency was charged: the line is in the shared L3 (filled by
	// core 0's store walk), so core 1 pays L3 latency (40) plus the
	// owner-downgrade snoop (20).
	if want := uint64(100 + 40 + snoopLatency); r.Done != want {
		t.Fatalf("M-downgrade load done=%d, want %d", r.Done, want)
	}
}

func TestRemoteStoreInvalidatesSharers(t *testing.T) {
	s := newSys(4)
	for i := 0; i < 3; i++ {
		s.Core(i).Load(uint64(i*100), 0x2000)
	}
	var invalidated []int
	for i := 0; i < 3; i++ {
		i := i
		s.Core(i).Hierarchy().OnInvalidate = func(la uint64) {
			if la == 0x2000 {
				invalidated = append(invalidated, i)
			}
		}
	}
	s.Core(3).Store(500, 0x2000)
	if st := s.LineState(0x2000); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
	if s.Sharers(0x2000) != 0b1000 {
		t.Fatalf("sharers = %#b", s.Sharers(0x2000))
	}
	if len(invalidated) != 3 {
		t.Fatalf("invalidated cores = %v, want all three sharers", invalidated)
	}
	// The sharers' private caches no longer hold the line.
	for i := 0; i < 3; i++ {
		if lvl := s.Core(i).Hierarchy().Probe(0x2000); lvl == mem.L1 || lvl == mem.L2 {
			t.Fatalf("core %d still holds the line at %v", i, lvl)
		}
	}
}

func TestWriteAfterWriteTransfersOwnership(t *testing.T) {
	s := newSys(2)
	s.Core(0).Store(0, 0x3000)
	s.Core(1).Store(100, 0x3000)
	if s.Sharers(0x3000) != 0b10 {
		t.Fatalf("sharers = %#b, want core1 only", s.Sharers(0x3000))
	}
	if s.Invalidations != 1 {
		t.Fatalf("invalidations = %d", s.Invalidations)
	}
}

func TestOwnUpgradeNoInvalidation(t *testing.T) {
	s := newSys(2)
	s.Core(0).Load(0, 0x4000)  // E
	s.Core(0).Store(1, 0x4000) // silent upgrade E->M
	if s.Invalidations != 0 {
		t.Fatalf("invalidations = %d, want 0", s.Invalidations)
	}
	if s.LineState(0x4000) != Modified {
		t.Fatal("should be M")
	}
}

func TestOblLoadTakesNoPermissions(t *testing.T) {
	s := newSys(2)
	s.Core(0).OblLoad(0, 0x5000, mem.L3)
	if s.LineState(0x5000) != Invalid {
		t.Fatal("Obl-Ld must not touch the directory")
	}
	// Core 1's store therefore does not deliver an invalidation to core 0:
	// the missed-invalidation scenario of §V-C1.
	notified := false
	s.Core(0).Hierarchy().OnInvalidate = func(uint64) { notified = true }
	s.Core(1).Store(10, 0x5000)
	if notified {
		t.Fatal("core 0 must miss the invalidation (it holds no copy)")
	}
}

func TestValidationClosesTheWindow(t *testing.T) {
	// After a validation (a normal load), the core holds the line and DOES
	// receive subsequent invalidations — the paper's fix.
	s := newSys(2)
	s.Core(0).OblLoad(0, 0x6000, mem.L3)
	s.Core(0).Load(50, 0x6000) // validation brings the line into L1
	notified := false
	s.Core(0).Hierarchy().OnInvalidate = func(la uint64) { notified = la == 0x6000 }
	s.Core(1).Store(100, 0x6000)
	if !notified {
		t.Fatal("after validation the invalidation must be delivered")
	}
}

func TestFlushReleasesPermissions(t *testing.T) {
	s := newSys(2)
	s.Core(0).Store(0, 0x7000)
	s.Core(0).Flush(0x7000)
	if s.LineState(0x7000) != Invalid {
		t.Fatalf("state after flush = %v", s.LineState(0x7000))
	}
	s.Core(0).Load(0, 0x8000)
	s.Core(1).Load(1, 0x8000)
	s.Core(0).Flush(0x8000)
	if s.Sharers(0x8000) != 0b10 {
		t.Fatalf("sharers after flush = %#b", s.Sharers(0x8000))
	}
}

func TestInvariantsUnderRandomTraffic(t *testing.T) {
	// Property: after any interleaving of loads/stores/flushes from 4 cores
	// over a small line pool, the single-writer invariant holds.
	s := newSys(4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		core := s.Core(rng.Intn(4))
		addr := uint64(rng.Intn(16)) * 64
		switch rng.Intn(3) {
		case 0:
			core.Load(uint64(i), addr)
		case 1:
			core.Store(uint64(i), addr)
		case 2:
			core.Flush(addr)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}
