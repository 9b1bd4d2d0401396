package mem

import (
	"math/rand"
	"testing"
)

// mapMSHR is the MSHR file as it was before it became a slice — a map from
// key to completion cycle, ranged over to prune and to find the earliest
// release — kept here as the reference the slice is checked against.
type mapMSHR struct {
	max    int
	m      map[uint64]uint64
	waited uint64
}

func (r *mapMSHR) prune(now uint64) {
	for k, done := range r.m {
		if done <= now {
			delete(r.m, k)
		}
	}
}

func (r *mapMSHR) acquire(now, key uint64, merge bool) (start, mergedDone uint64, merged bool) {
	r.prune(now)
	if merge {
		if done, ok := r.m[key]; ok {
			return now, done, true
		}
	}
	start = now
	for len(r.m) >= r.max {
		min, first := uint64(0), true
		for _, done := range r.m {
			if first || done < min {
				min, first = done, false
			}
		}
		if min > start {
			r.waited += min - start
			start = min
		}
		r.prune(start)
	}
	return start, 0, false
}

func (r *mapMSHR) outstanding(now uint64) int {
	r.prune(now)
	return len(r.m)
}

// TestMSHRMatchesMapReference drives the cache's MSHR file and the map
// reference with the same random traces — acquires that merge and that do
// not, commits that add a key, overwrite a live one, or push the file past
// its size between an acquire and its commit, and time that moves forward
// in steps both shorter and longer than a miss — and requires the same
// answer at every step.
func TestMSHRMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(16)
		c := NewCache(CacheConfig{SizeBytes: 512, Ways: 2, Latency: 2, Banks: 2, MSHRs: size})
		ref := &mapMSHR{max: size, m: map[uint64]uint64{}}
		keys := uint64(size + 1 + rng.Intn(2*size)) // enough to fill the file, few enough to collide
		now := uint64(0)
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // acquire, then usually commit
				key, merge := rng.Uint64()%keys, rng.Intn(3) > 0
				start, done, merged := c.AcquireMSHR(now, key, merge)
				rstart, rdone, rmerged := ref.acquire(now, key, merge)
				if start != rstart || done != rdone || merged != rmerged {
					t.Fatalf("seed %d step %d: AcquireMSHR(%d, %d, %v) = (%d, %d, %v), reference (%d, %d, %v)",
						seed, step, now, key, merge, start, done, merged, rstart, rdone, rmerged)
				}
				if !merged && rng.Intn(8) > 0 {
					d := start + 1 + uint64(rng.Intn(50*size))
					c.CommitMSHR(key, d)
					ref.m[key] = d
				}
			case op < 7: // a commit on its own: overwrite, or exceed the file
				key, d := rng.Uint64()%keys, now+uint64(rng.Intn(50*size))
				c.CommitMSHR(key, d)
				ref.m[key] = d
			default:
				now += uint64(rng.Intn(40))
			}
			if c.MSHRWaitCycles != ref.waited {
				t.Fatalf("seed %d step %d: MSHRWaitCycles = %d, reference %d", seed, step, c.MSHRWaitCycles, ref.waited)
			}
			if got, want := c.OutstandingMisses(now), ref.outstanding(now); got != want {
				t.Fatalf("seed %d step %d: OutstandingMisses(%d) = %d, reference %d", seed, step, now, got, want)
			}
		}
		if c.MSHRWaitCycles == 0 {
			t.Errorf("seed %d: the trace never filled the %d-entry file", seed, size)
		}
	}
}
