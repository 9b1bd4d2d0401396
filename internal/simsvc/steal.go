package simsvc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Work stealing (the cluster's second pillar). When Config.WorkStealing
// is on, the service keeps a registry of cells that are enqueued but not
// yet picked up by a worker. A cluster peer with free worker slots (the
// thief) claims that many via Service.StealCells, which hands each out
// under a lease: thief identity plus an expiry, held in memory only.
// Claims come from the tail of the queue while the owner's
// workers dequeue from its head, so the two meet once, at the end. The
// thief runs the cell on its own worker pool (Service.RunStolen: its own
// cache and executor) and posts the content-addressed wire entry back
// via Service.CompleteSteal.
//
// Safety comes from the cache's content addressing, not from the lease:
// a lease only bounds how long the owner's worker waits before running
// the cell itself. If the thief is SIGKILL'd mid-claim the lease expires,
// the owner reclaims the cell by simulating locally, and a late
// completion from a resurrected thief is just a harmless duplicate Put
// of a byte-identical entry. Results are exactly-once by key, never by
// coordination.

// DefaultStealLeaseTTL bounds how long the owner waits on a stolen
// cell's result before reclaiming it.
const DefaultStealLeaseTTL = 30 * time.Second

// StolenCell is one leased unit of work handed to a thief.
type StolenCell struct {
	// Key is the cell's content-addressed cache key; CompleteSteal
	// expects the result posted back under it.
	Key string `json:"key"`
	// Spec is the full run specification; the thief re-derives Key from
	// it and refuses the claim on mismatch (schema-version skew guard).
	Spec harness.RunSpec `json:"spec"`
	// Until is the lease expiry; past it the owner reclaims the cell.
	Until time.Time `json:"until"`
}

// pendingCell is a queued-but-not-started cell, stealable by peers.
// refs counts how many queued runCell invocations share the key.
type pendingCell struct {
	spec harness.RunSpec
	refs int
}

// cellLease is one outstanding steal claim.
type cellLease struct {
	thief string
	until time.Time
	done  chan struct{} // closed by CompleteSteal
}

// stealState tracks pending (stealable) cells and outstanding leases.
// A nil *stealState is the stealing-off state: every method no-ops.
type stealState struct {
	mu      sync.Mutex
	pending map[string]*pendingCell
	order   []string // enqueue order (keys; may hold stale entries)
	leases  map[string]*cellLease
	idle    chan struct{} // idle-edge signal, see Service.IdleEdge

	cellsStolen    *obs.Counter // queued cells leased out to work-stealing peers
	stealCompleted *obs.Counter // stolen-cell results delivered back
	leaseExpiries  *obs.Counter // steal leases that expired unfulfilled (cell reclaimed)
}

func newStealState(r *obs.Registry) *stealState {
	return &stealState{
		pending: make(map[string]*pendingCell),
		leases:  make(map[string]*cellLease),
		idle:    make(chan struct{}, 1),

		cellsStolen:    r.NewCounter("sdo_cluster_cells_stolen_total", "Queued cells leased out to work-stealing cluster peers."),
		stealCompleted: r.NewCounter("sdo_cluster_steal_completions_total", "Stolen-cell results accepted back into the cache."),
		leaseExpiries:  r.NewCounter("sdo_cluster_lease_expiries_total", "Steal leases that expired unfulfilled (cell reclaimed locally)."),
	}
}

// enqueue registers a queued cell as stealable.
func (st *stealState) enqueue(key string, spec harness.RunSpec) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if p, ok := st.pending[key]; ok {
		p.refs++
	} else {
		st.pending[key] = &pendingCell{spec: spec, refs: 1}
		st.order = append(st.order, key)
	}
	st.mu.Unlock()
}

// dequeue unregisters one queued instance of key (a worker picked it
// up); the key stops being stealable once the last instance is gone.
func (st *stealState) dequeue(key string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if p, ok := st.pending[key]; ok {
		if p.refs--; p.refs <= 0 {
			delete(st.pending, key)
		}
	}
	st.mu.Unlock()
}

// lease returns the outstanding lease for key, if any.
func (st *stealState) lease(key string) (*cellLease, bool) {
	if st == nil {
		return nil, false
	}
	st.mu.Lock()
	l, ok := st.leases[key]
	st.mu.Unlock()
	return l, ok
}

// drop removes l from the lease table iff it is still the current lease
// for key, reporting whether it did (the caller then owns accounting).
func (st *stealState) drop(key string, l *cellLease) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.leases[key]; ok && cur == l {
		delete(st.leases, key)
		return true
	}
	return false
}

// signalIdle is the pool's OnIdle hook: a worker slot just freed up with
// nothing queued behind it.
func (st *stealState) signalIdle() {
	select {
	case st.idle <- struct{}{}:
	default: // a signal is already pending; edges coalesce
	}
}

// IdleEdge delivers one (coalesced) signal each time a worker finishes a
// cell — the node's own or a stolen one — and finds nothing queued: the
// moment IdleWorkers rises. The cluster's steal loop sleeps on it. Nil
// (blocks forever) with work stealing off.
func (s *Service) IdleEdge() <-chan struct{} {
	if s.steal == nil {
		return nil
	}
	return s.steal.idle
}

// StealCells claims up to max pending cells for thief under fresh
// leases, newest-enqueued first. Cells already cached, in flight locally,
// or under an unexpired lease are skipped before max is applied, so an
// empty answer means nothing is claimable. Returns nil when stealing is
// off.
func (s *Service) StealCells(thief string, max int) []StolenCell {
	st := s.steal
	if st == nil || max <= 0 || thief == "" {
		return nil
	}
	// Snapshot unleased pending keys from the tail, then filter against the
	// cache and the inflight table outside st.mu (lock order: never hold
	// st.mu and s.mu together).
	now := time.Now()
	var expired, cands []string
	st.mu.Lock()
	live := st.order[:0]
	for _, key := range st.order {
		if _, ok := st.pending[key]; ok {
			live = append(live, key) // the rest were dequeued; drop them lazily
		}
	}
	st.order = live
	for i := len(live) - 1; i >= 0; i-- {
		key := live[i]
		if l, leased := st.leases[key]; leased {
			if now.Before(l.until) {
				continue
			}
			// Expired and never completed: reclaim by re-stealing.
			delete(st.leases, key)
			expired = append(expired, key)
		}
		cands = append(cands, key)
	}
	st.mu.Unlock()
	for _, key := range expired {
		st.leaseExpiries.Inc()
		s.event("steal-lease-expired", key)
	}

	until := now.Add(s.cfg.StealLeaseTTL)
	var out []StolenCell
	for _, key := range cands {
		if len(out) == max {
			break
		}
		if s.cache.Contains(key) {
			continue
		}
		s.mu.Lock()
		_, running := s.inflight[key]
		s.mu.Unlock()
		if running {
			continue
		}
		st.mu.Lock()
		_, leased := st.leases[key]
		p, stillPending := st.pending[key]
		if !leased && stillPending {
			st.leases[key] = &cellLease{thief: thief, until: until, done: make(chan struct{})}
		}
		st.mu.Unlock()
		if leased || !stillPending {
			continue
		}
		out = append(out, StolenCell{Key: key, Spec: p.spec, Until: until})
		st.cellsStolen.Inc()
	}
	return out
}

// CompleteSteal accepts a stolen cell's result: the body must be the
// content-addressed wire entry for key (same format and checksum as
// GET /cache/{key}), and is rejected — never cached — on any mismatch.
// Completing an expired or unknown lease is fine: the entry is still
// byte-identical by construction, so the Put is idempotent.
func (s *Service) CompleteSteal(key string, body []byte) error {
	if s.steal == nil {
		return fmt.Errorf("simsvc: work stealing disabled")
	}
	e, err := decodeEntry(key, body)
	if err != nil {
		return err
	}
	s.cache.add(e)
	st := s.steal
	st.stealCompleted.Inc()
	st.mu.Lock()
	l, ok := st.leases[key]
	delete(st.leases, key)
	// Settled: no longer stealable, even though the owner's worker has yet
	// to reach it (its dequeue then finds nothing, its cache lookup hits).
	delete(st.pending, key)
	st.mu.Unlock()
	if ok {
		close(l.done)
	}
	return nil
}

// stealWait blocks a worker that dequeued a leased (stolen) cell until
// the thief delivers or the lease expires, under a steal-claim span.
// Returns the cache's copy of the result on delivery; an expiry reclaims
// the cell (the caller simulates locally, exactly as if it was never
// stolen).
func (s *Service) stealWait(root *trace.Span, key string) (*core.Result, bool) {
	l, ok := s.steal.lease(key)
	if !ok {
		return nil, false
	}
	sp := root.Child(trace.PhaseStealClaim)
	sp.Set("thief", l.thief)
	wait := time.Until(l.until)
	if wait < 0 {
		wait = 0
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-l.done:
	case <-t.C:
	case <-s.ctx.Done():
	}
	if r, hit := s.cache.Get(key); hit {
		sp.Set("outcome", "completed")
		sp.Finish()
		return r, true
	}
	sp.Set("outcome", "expired")
	sp.Finish()
	if s.steal.drop(key, l) {
		s.steal.leaseExpiries.Inc()
		s.event("steal-lease-expired", fmt.Sprintf("%s (thief %s); reclaimed locally", key, l.thief))
	}
	return nil, false
}

// StolenRun is the outcome of one RunStolen: the wire entry to post
// back to the owner, or why there is none.
type StolenRun struct {
	Wire []byte
	Err  error
}

// RunStolen runs a stolen cell's spec on this (thief) node's worker pool
// — local cache first, then execute on this node's executor — and
// delivers the content-addressed wire entry on the returned channel.
// The cell is on the pool before
// RunStolen returns, so IdleWorkers already counts it: a thief that
// claims IdleWorkers() cells and hands each to RunStolen never holds more
// leases than free slots, and its own jobs queue behind a stolen run
// instead of beside it.
func (s *Service) RunStolen(ctx context.Context, spec harness.RunSpec) <-chan StolenRun {
	out := make(chan StolenRun, 1)
	if !s.pool.Submit(func(context.Context) {
		wire, err := s.runStolen(ctx, spec)
		out <- StolenRun{Wire: wire, Err: err}
	}) {
		out <- StolenRun{Err: ErrClosed}
	}
	return out
}

func (s *Service) runStolen(ctx context.Context, spec harness.RunSpec) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // lease ran out (or the node stopped) while queued
	}
	key, err := spec.CacheKey()
	if err != nil {
		return nil, err
	}
	e, ok := s.cache.lookup(key, false)
	if !ok {
		r, _, err := s.execute(ctx, spec, nil)
		if err != nil {
			return nil, err
		}
		e = s.cache.add(newEntry(key, r))
	}
	if e.wire == nil {
		return nil, fmt.Errorf("simsvc: stolen cell %s: result not cacheable", key)
	}
	return e.wire, nil
}
