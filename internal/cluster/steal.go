package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/simsvc"
)

// wakeup is why the steal loop woke (the steal-claim span's wake=
// attribute) and, for a hint, which member sent it.
type wakeup struct {
	why  string // "hint", "idle" or "tick"
	from string
}

// stealLoop sleeps until there may be something to steal and a slot to
// run it on: a peer hinted that it queued work behind busy workers, a
// local worker slot just freed up, or — the safety net for a lost hint
// and for jobs a peer resumed from its journal — the StealInterval
// ticker fired. Stolen cells run on the local service's pool (own cache,
// artifact tiers, fault policy) and post their content-addressed wire
// entries back to the owner, which validates the checksum before settling
// the lease — a thief can waste a lease but never corrupt a result.
func (n *Node) stealLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StealInterval)
	defer t.Stop()
	for {
		var w wakeup
		select {
		case <-n.ctx.Done():
			return
		case <-n.queued:
			n.hintPeers()
			continue
		case w = <-n.hinted:
		case <-n.svc.IdleEdge():
			w.why = "idle"
		case <-t.C:
			w.why = "tick"
		}
		n.steal(w)
	}
}

// steal claims cells while this node has free worker slots and some peer
// still hands any out, the hinting peer first. Each claim asks for
// exactly the free slots and every claimed cell is on the pool before the
// next IdleWorkers read, so the node never holds more leases than it can
// run at once and stealing never delays its own work. Nothing waits for a
// stolen cell here: its completion frees a slot, which wakes the loop.
func (n *Node) steal(w wakeup) {
	peers := n.others()
	for i, m := range peers {
		if m.ID == w.from {
			peers[0], peers[i] = peers[i], peers[0]
		}
	}
	for claimed := true; claimed; {
		claimed = false
		for _, m := range peers {
			free := n.svc.IdleWorkers()
			if free <= 0 || n.ctx.Err() != nil {
				return
			}
			cells, err := n.claimFrom(m, free)
			if err != nil {
				continue // unreachable, skipped on its open breaker, or a bad answer: next peer
			}
			for _, c := range cells {
				claimed = true
				n.runStolen(m, c, w.why)
			}
		}
	}
}

// claimFrom asks one peer for up to max queued cells.
func (n *Node) claimFrom(m Member, max int) ([]simsvc.StolenCell, error) {
	var cells []simsvc.StolenCell
	path := fmt.Sprintf("/cluster/steal?max=%d&thief=%s", max, url.QueryEscape(n.self.ID))
	if err := n.rpc(n.ctx, m, http.MethodGet, path, nil, &cells); err != nil {
		return nil, err
	}
	// Trust but verify: the key must be the spec's own cache key, or the
	// completed result would be filed (and journaled) under a lie.
	ok := cells[:0]
	for _, c := range cells {
		if k, err := c.Spec.CacheKey(); err == nil && k == c.Key {
			ok = append(ok, c)
		}
	}
	return ok, nil
}

// runStolen puts one claimed cell on the local pool — before returning,
// so the caller's next IdleWorkers read counts it — and posts the result
// back from a goroutine of its own: the worker slot is free again while
// the completion is still on the wire. The run is bounded by the lease
// deadline: past it the owner reclaims the cell and any further local
// work here is wasted, so stop instead.
func (n *Node) runStolen(owner Member, c simsvc.StolenCell, wake string) {
	ctx, cancel := context.WithDeadline(n.ctx, c.Until)
	run := n.svc.RunStolen(ctx, c.Spec)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer cancel()
		var sp *trace.Span
		if n.jt != nil {
			ct := n.jt.StartCell("steal "+c.Key, time.Now())
			sp = ct.Root().Child(trace.PhaseStealClaim)
			sp.Set("owner", owner.ID)
			sp.Set("key", c.Key)
			sp.Set("wake", wake)
			defer func() { sp.Finish(); ct.Finish() }()
		}
		outcome := "completed"
		var r simsvc.StolenRun
		select {
		case r = <-run:
		case <-ctx.Done():
			r.Err = ctx.Err() // still queued behind the node's own work
		}
		if r.Err != nil {
			outcome = "run-failed"
		} else if err := n.rpc(ctx, owner, http.MethodPost, "/cluster/complete?key="+url.QueryEscape(c.Key), r.Wire, nil); err != nil {
			outcome = "post-failed"
		}
		if outcome == "completed" {
			n.steals.Inc()
		} else {
			n.stealErrors.Inc()
		}
		if sp != nil {
			sp.Set("outcome", outcome)
		}
	}()
}

// hintPeers tells every other member that this node just queued more
// cells than it has workers for. It runs on the steal loop's goroutine
// (which Close waits for) but does not wait for the sends: fire and
// forget. A lost hint costs the peer at most one StealInterval, so a
// failure is counted, never retried.
func (n *Node) hintPeers() {
	for _, m := range n.others() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := n.rpc(n.ctx, m, http.MethodPost, "/cluster/wake?from="+url.QueryEscape(n.self.ID), nil, nil); err != nil {
				n.stealErrors.Inc()
			}
		}()
	}
}
