package simsvc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Work stealing: hint, claim, run, complete. A service with
// Config.StealFrom set is both halves of the protocol at once.
//
// As owner it keeps a registry of cells that are enqueued but not yet
// picked up by a worker, by key: equivalent cells (RunSpec.Representative)
// share one, and so one lease. A peer with free worker slots (the
// thief) claims that many (GET /cluster/steal), each handed out under a lease:
// the thief's address plus an expiry, held in memory only. Claims come
// from the tail of the queue while the owner's workers dequeue from its
// head, so the two meet once, at the end. A Submit that leaves more
// cells queued than workers hints every peer (POST /cluster/wake).
//
// As thief its steal loop sleeps until there may be something to steal
// and a slot to run it on: a peer's hint, a local worker slot freeing
// up, or — the safety net for a lost hint — the stealTick ticker. A
// claimed cell runs on the thief's own pool (its own cache and executor)
// and its content-addressed wire entry is posted back (POST
// /cluster/complete), where the owner checks it before settling the
// lease.
//
// Safety comes from the cache's content addressing, not from the lease:
// a lease only bounds how long the owner's worker waits before running
// the cell itself. If the thief is SIGKILL'd mid-claim the lease expires,
// the owner reclaims the cell by simulating locally, and a late
// completion from a resurrected thief is just a harmless duplicate Put
// of a byte-identical entry. Results are exactly-once by key, never by
// coordination.

// defaultStealLeaseTTL bounds how long the owner waits on a stolen
// cell's result before reclaiming it.
const defaultStealLeaseTTL = 30 * time.Second

// stealTick is the steal loop's fallback period. Tests shorten it before
// New; nothing else writes it.
var stealTick = 2 * time.Second

// stolenCell is one leased unit of work handed to a thief.
type stolenCell struct {
	// Key is the cell's content-addressed cache key; the completion is
	// expected under it.
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
	done  chan struct{} // closed by completeSteal
}

// stealState is both halves of the protocol. A nil *stealState is the
// stealing-off state.
type stealState struct {
	// The owner half: pending (stealable) cells and outstanding leases.
	mu      sync.Mutex
	pending map[string]*pendingCell
	order   []string // enqueue order (keys; may hold stale entries)
	leases  map[string]*cellLease

	// The thief half. peers are the members claimed from and hinted, and
	// start is where the next steal round begins polling them (the loop's
	// own). The loop's three mailboxes coalesce (capacity 1, senders never
	// block): idle says a worker slot freed up with nothing queued behind
	// it, hinted that a peer has cells to spare, queued that a local
	// submission left cells waiting and the peers should be hinted. wg
	// counts the loop, its hint sends and stolen cells' completions.
	peers                []string
	start                int
	idle, hinted, queued chan struct{}
	wg                   sync.WaitGroup

	cellsStolen    *obs.Counter // queued cells leased out to work-stealing peers
	stealCompleted *obs.Counter // stolen-cell results delivered back
	leaseExpiries  *obs.Counter // steal leases that expired unfulfilled (cell reclaimed)
	steals         *obs.Counter // cells stolen from peers and completed
	stealErrors    *obs.Counter // stolen cells that failed to run or post back; hints that failed to send
	hints          *obs.Counter // work-available hints received from peers
}

// startStealing turns both halves on and starts the steal loop, which
// Shutdown stops.
func (s *Service) startStealing() {
	r := s.reg
	st := &stealState{
		pending: make(map[string]*pendingCell),
		leases:  make(map[string]*cellLease),
		peers:   s.cfg.StealFrom,
		idle:    make(chan struct{}, 1),
		hinted:  make(chan struct{}, 1),
		queued:  make(chan struct{}, 1),

		cellsStolen:    r.NewCounter("sdo_cluster_cells_stolen_total", "Queued cells leased out to work-stealing cluster peers."),
		stealCompleted: r.NewCounter("sdo_cluster_steal_completions_total", "Stolen-cell results accepted back into the cache."),
		leaseExpiries:  r.NewCounter("sdo_cluster_lease_expiries_total", "Steal leases that expired unfulfilled (cell reclaimed locally)."),
		steals: r.NewCounter("sdo_cluster_steals_total",
			"Queued cells this node stole from peers and completed back to their owner."),
		stealErrors: r.NewCounter("sdo_cluster_steal_errors_total",
			"Stolen cells that failed to execute or to post back to their owner, plus wake hints that failed to reach a peer."),
		hints: r.NewCounter("sdo_cluster_steal_hints_total",
			"Work-available hints received from cluster peers."),
	}
	s.steal = st
	s.pool.OnIdle = func() { nudge(st.idle) }
	st.wg.Add(1)
	go s.stealLoop(stealTick)
}

// nudge posts to a coalescing mailbox; a signal already pending absorbs
// this one.
func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// enqueue registers a queued cell as stealable under its key; spec is
// what the key names, the cell's representative.
func (st *stealState) enqueue(key string, spec harness.RunSpec) {
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

// idleWorkers is how many pool workers neither run nor have a queued
// cell to pick up — the capacity stealing may use without delaying
// demand cells. Stolen cells run on the pool, so they count as busy.
func (s *Service) idleWorkers() int {
	return s.cfg.Workers - s.pool.Busy()
}

// claimCells leases up to max pending cells to thief, newest-enqueued
// first. Cells already cached, in flight locally, or under an unexpired
// lease are skipped before max is applied, so an empty answer means
// nothing is claimable.
func (s *Service) claimCells(thief string, max int) []stolenCell {
	st := s.steal
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
	var out []stolenCell
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
		out = append(out, stolenCell{Key: key, Spec: p.spec, Until: until})
		st.cellsStolen.Inc()
	}
	return out
}

// completeSteal accepts a stolen cell's result: the body must be the
// content-addressed wire entry for key (an entry file's bytes, as a
// peer's lookup is answered), and is rejected — never cached — on any
// mismatch.
// Completing an expired or unknown lease is fine: the entry is still
// byte-identical by construction, so the Put is idempotent.
func (s *Service) completeSteal(key string, body []byte) error {
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

// handleSteal hands out lease-protected queued cells to the thief at
// the request's remote address, as many as it has free slots for
// (?max=, one when absent). An empty list is the normal answer on an
// idle or drained node.
func (s *Service) handleSteal(w http.ResponseWriter, r *http.Request) {
	max := 1
	if v, err := strconv.Atoi(r.URL.Query().Get("max")); err == nil && v > 0 {
		max = v
	}
	cells := s.claimCells(r.RemoteAddr, max)
	if cells == nil {
		cells = []stolenCell{}
	}
	writeJSON(w, http.StatusOK, cells)
}

// handleComplete accepts a thief's finished cell (the content-addressed
// wire entry) and settles the lease.
func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.completeSteal(key, body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleWake takes a peer's hint that it has queued cells to spare and
// wakes the steal loop.
func (s *Service) handleWake(w http.ResponseWriter, r *http.Request) {
	s.steal.hints.Inc()
	nudge(s.steal.hinted)
	w.WriteHeader(http.StatusNoContent)
}

// stealLoop is the thief's one goroutine: it hints the peers when a
// submission asks it to, and runs a steal round on every other wake-up.
func (s *Service) stealLoop(tick time.Duration) {
	st := s.steal
	defer st.wg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-st.queued:
			s.hintPeers()
			continue
		case <-st.hinted:
		case <-st.idle:
		case <-t.C:
		}
		s.stealRound()
	}
}

// stealRound claims cells while this node has free worker slots and some
// peer still hands any out, polling the peers from a start that rotates
// round by round. Each claim asks for exactly the free slots and every
// claimed cell is on the pool before the next idleWorkers read, so the
// node never holds more leases than it can run at once and stealing
// never delays its own work. Nothing waits for a stolen cell here: its
// completion frees a slot, which wakes the loop.
func (s *Service) stealRound() {
	st := s.steal
	first := st.start
	st.start = (st.start + 1) % len(st.peers)
	for claimed := true; claimed; {
		claimed = false
		for i := range st.peers {
			owner := st.peers[(first+i)%len(st.peers)]
			free := s.idleWorkers()
			if free <= 0 || s.ctx.Err() != nil {
				return
			}
			cells, err := s.claim(owner, free)
			if err != nil {
				continue // unreachable, skipped on its open breaker, or a bad answer: next peer
			}
			for _, c := range cells {
				claimed = true
				s.runStolen(owner, c)
			}
		}
	}
}

// claim asks one owner for up to max queued cells.
func (s *Service) claim(owner string, max int) ([]stolenCell, error) {
	var cells []stolenCell
	if err := s.fab.Call(s.ctx, owner, http.MethodGet, "/cluster/steal?max="+strconv.Itoa(max), nil, nil, &cells); err != nil {
		return nil, err
	}
	// Trust but verify: the key must be the spec's own cache key, or the
	// completed result would be filed under a lie.
	ok := cells[:0]
	for _, c := range cells {
		if k, err := c.Spec.CacheKey(); err == nil && k == c.Key {
			ok = append(ok, c)
		}
	}
	return ok, nil
}

// runStolen puts one claimed cell on the local pool — before returning,
// so the caller's next idleWorkers read counts it — and posts the result
// back from a goroutine of its own: the worker slot is free again while
// the completion is still on the wire. The run is bounded by the lease
// deadline: past it the owner reclaims the cell and any further local
// work here is wasted, so stop instead.
func (s *Service) runStolen(owner string, c stolenCell) {
	st := s.steal
	ctx, cancel := context.WithDeadline(s.ctx, c.Until)
	st.wg.Add(1)
	post := func(wire []byte, err error) {
		defer st.wg.Done()
		defer cancel()
		if err == nil {
			err = s.fab.Call(ctx, owner, http.MethodPost, "/cluster/complete?key="+url.QueryEscape(c.Key), nil, wire, nil)
		}
		if err == nil {
			st.steals.Inc()
		} else {
			st.stealErrors.Inc()
		}
	}
	if !s.pool.Submit(func(context.Context) {
		wire, err := s.stolenWire(ctx, c.Spec)
		go post(wire, err)
	}) {
		post(nil, ErrClosed)
	}
}

// stolenWire runs a stolen cell's spec — local cache first, then this
// node's executor — and returns its content-addressed wire entry.
func (s *Service) stolenWire(ctx context.Context, spec harness.RunSpec) ([]byte, error) {
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

// hintPeers tells every peer that this node just queued more cells than
// it has workers for. It runs on the steal loop's goroutine but does not
// wait for the sends: fire and forget. A lost hint costs the peer at most
// one stealTick, so a failure is counted, never retried.
func (s *Service) hintPeers() {
	st := s.steal
	for _, p := range st.peers {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			if err := s.fab.Call(s.ctx, p, http.MethodPost, "/cluster/wake", nil, nil, nil); err != nil {
				st.stealErrors.Inc()
			}
		}()
	}
}
