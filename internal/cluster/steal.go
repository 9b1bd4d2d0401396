package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/simsvc"
)

// stealLoop periodically polls peers for queued cells while this node
// has idle workers. Stolen cells run through the local service's
// RunStolen path (own cache, artifact peering, fault policy) and post
// their content-addressed wire entries back to the owner, which
// validates the checksum before settling the lease — a thief can waste
// a lease but never corrupt a result.
func (n *Node) stealLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			n.stealOnce()
		}
	}
}

// stealOnce polls each peer in rotated order until the idle-worker
// budget is spent. The budget is conservative: locally queued cells
// count against it, so stealing never delays the node's own work.
func (n *Node) stealOnce() {
	idle := n.svc.IdleWorkers()
	if idle <= 0 {
		return
	}
	for _, mem := range n.others() {
		if idle <= 0 || n.ctx.Err() != nil {
			return
		}
		want := n.cfg.StealMax
		if want > idle {
			want = idle
		}
		cells, err := n.claimFrom(mem, want)
		if err != nil {
			n.logf("cluster: steal poll %s: %v", mem.ID, err)
			continue
		}
		if len(cells) == 0 {
			continue
		}
		var wg sync.WaitGroup
		for _, c := range cells {
			wg.Add(1)
			go func(c simsvc.StolenCell) {
				defer wg.Done()
				n.runStolen(mem, c)
			}(c)
		}
		wg.Wait()
		idle -= len(cells)
	}
}

// claimFrom asks one peer for up to max queued cells.
func (n *Node) claimFrom(m Member, max int) ([]simsvc.StolenCell, error) {
	u := fmt.Sprintf("%s/cluster/steal?max=%d&thief=%s", m.URL, max, url.QueryEscape(n.self.ID))
	req, err := http.NewRequestWithContext(n.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.boundedClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, errStatus(resp.StatusCode)
	}
	var cells []simsvc.StolenCell
	if err := json.NewDecoder(resp.Body).Decode(&cells); err != nil {
		return nil, err
	}
	// Trust but verify: the key must be the spec's own cache key, or the
	// completed result would be filed (and journaled) under a lie.
	ok := cells[:0]
	for _, c := range cells {
		if k, err := c.Spec.CacheKey(); err == nil && k == c.Key {
			ok = append(ok, c)
		} else {
			n.logf("cluster: steal from %s: key/spec mismatch for %s", m.ID, c.Key)
		}
	}
	return ok, nil
}

// runStolen executes one stolen cell and posts the result back. The run
// is bounded by the lease deadline: past it the owner reclaims the cell
// and any further local work here is wasted, so stop instead.
func (n *Node) runStolen(owner Member, c simsvc.StolenCell) {
	var sp *trace.Span
	if n.jt != nil {
		ct := n.jt.StartCell("steal "+c.Key, time.Now())
		sp = ct.Root().Child(trace.PhaseStealClaim)
		sp.Set("owner", owner.ID)
		sp.Set("key", c.Key)
		defer func() { sp.Finish(); ct.Finish() }()
	}
	ctx := n.ctx
	if !c.Until.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, c.Until)
		defer cancel()
	}
	wire, err := n.svc.RunStolen(ctx, c.Spec)
	if err != nil {
		n.stealErrors.Inc()
		if sp != nil {
			sp.Set("outcome", "run-failed")
		}
		n.logf("cluster: stolen cell %s from %s: %v", c.Key, owner.ID, err)
		return
	}
	if err := n.postComplete(ctx, owner, c.Key, wire); err != nil {
		n.stealErrors.Inc()
		if sp != nil {
			sp.Set("outcome", "post-failed")
		}
		n.logf("cluster: post stolen %s to %s: %v", c.Key, owner.ID, err)
		return
	}
	n.steals.Inc()
	if sp != nil {
		sp.Set("outcome", "completed")
	}
}

// postComplete returns the wire entry to the owner.
func (n *Node) postComplete(ctx context.Context, owner Member, key string, wire []byte) error {
	u := owner.URL + "/cluster/complete?key=" + url.QueryEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(wire))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.boundedClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
