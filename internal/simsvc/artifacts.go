package simsvc

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
)

// The artifact tiers. The expensive per-workload artifacts — functional-
// warmup checkpoints and SimPoint sampling plans — are keyed by content
// exactly like results (RunSpec.CheckpointKey / PlanKey), and both resolve
// through one in-memory memo (artifactTier.resolve): the first cell to need
// a key builds it, concurrent cells for the same key block until that one
// build finishes, and later cells reuse it.
//
// Memory is the only rung. Both builds are deterministic and cost
// milliseconds (DESIGN.md, keep-or-cut ledger), so a restarted server or
// another cluster node that builds its own gets a bit-identical artifact
// for less than reading one back from a file or a peer would cost; the
// service stores results and nothing else.

// artifactTierMax bounds each tier to its most recently resolved keys.
// Keys carry client-chosen budgets and sampling seeds, so an unbounded
// memo would keep every plan and checkpoint a long-lived server ever
// built; an evicted one is rebuilt on the next ask.
const artifactTierMax = 64

// artifactTier is the singleflight memo for one artifact kind.
type artifactTier[T any] struct {
	svc   *Service
	label string       // "checkpoint" | "plan": event-kind and error-message prefix
	hits  *obs.Counter // cells that reused a resolved (or resolving) artifact

	mu      sync.Mutex
	flights map[string]*artifactFlight[T]
	// resolved holds the keys of finished flights, least recently resolved
	// first: the eviction order. A flight still building is not in it, so
	// it is never evicted.
	resolved []string
}

// artifactFlight is one tier entry: the first cell to need it builds
// while later cells block on done; once done it is the memo's value.
type artifactFlight[T any] struct {
	done chan struct{}
	v    T
	err  error
}

func newArtifactTier[T any](s *Service, label string, hits *obs.Counter) *artifactTier[T] {
	return &artifactTier[T]{svc: s, label: label, hits: hits, flights: make(map[string]*artifactFlight[T])}
}

// resolve returns the artifact for key, building it on a miss. A failed
// or panicking build is isolated: this caller and any blocked on the
// flight get the error, and the flight is dropped so a later cell can
// retry. Evicting an entry only forgets it: whoever holds the artifact
// keeps their reference.
func (t *artifactTier[T]) resolve(key string, build func() (T, error)) (T, error) {
	t.mu.Lock()
	if f, ok := t.flights[key]; ok {
		if i := slices.Index(t.resolved, key); i >= 0 {
			t.resolved = append(slices.Delete(t.resolved, i, i+1), key)
		}
		t.mu.Unlock()
		<-f.done
		if f.err == nil {
			t.hits.Inc()
		}
		return f.v, f.err
	}
	f := &artifactFlight[T]{done: make(chan struct{})}
	t.flights[key] = f
	t.mu.Unlock()
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("simsvc: %s build for %s panicked: %v", t.label, key, r)
				t.svc.event(t.label+"-panic", fmt.Sprintf("%s: %v", key, r))
			}
			close(f.done)
		}()
		f.v, f.err = build()
	}()
	t.mu.Lock()
	if f.err != nil {
		delete(t.flights, key)
	} else if t.resolved = append(t.resolved, key); len(t.resolved) > artifactTierMax {
		delete(t.flights, t.resolved[0])
		t.resolved = slices.Delete(t.resolved, 0, 1)
	}
	t.mu.Unlock()
	return f.v, f.err
}
