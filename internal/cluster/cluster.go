// Package cluster federates N sdoserver nodes into one logical sweep
// service. Every node answers every /sweeps request: job IDs are
// partitioned by rendezvous hashing over the member set, requests for a
// job the local node does not hold are transparently proxied to the
// ranked owner, and GET /sweeps is answered by scatter-gather across
// the membership. Nodes with free worker slots steal queued cells from
// busy peers under journaled leases, woken by the busy peer's hint rather
// than a poll.
//
// The layer is strictly additive: with a single member (or no cluster
// flags at all) the wrapped service behaves byte-identically to a
// standalone sdoserver.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/simsvc"
)

// Cluster-routing headers. Hop marks a request already forwarded once:
// the receiver answers locally and never forwards again, so membership
// disagreement degrades to a 404 instead of a proxy loop. Owner names
// the unreachable owner on an honest-degradation 503. Via names the
// node that served a proxied response, Partial the peers a scatter-
// gather listing could not reach.
const (
	HopHeader     = "X-Sdo-Cluster-Hop"
	OwnerHeader   = "X-Sdo-Cluster-Owner"
	ViaHeader     = "X-Sdo-Cluster-Via"
	PartialHeader = "X-Sdo-Cluster-Partial"
)

// DefaultStealInterval is the fallback steal poll period.
const DefaultStealInterval = 2 * time.Second

// rpcTimeout bounds each short cluster RPC: a scatter-gather fetch, a
// steal claim, a completion, a wake hint.
const rpcTimeout = 10 * time.Second

// Member is one node of the cluster.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// ParseMembers parses a comma-separated "id=url" membership list, e.g.
//
//	a=http://node-a:8347,b=http://node-b:8347,c=http://node-c:8347
//
// IDs and URLs must be unique; trailing slashes on URLs are dropped so
// joined request paths stay canonical.
func ParseMembers(spec string) ([]Member, error) {
	var out []Member
	ids := make(map[string]bool)
	urls := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		id, u = strings.TrimSpace(id), strings.TrimSuffix(strings.TrimSpace(u), "/")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("cluster: malformed member %q (want id=url)", part)
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("cluster: member %s: url %q must be http(s)", id, u)
		}
		if ids[id] {
			return nil, fmt.Errorf("cluster: duplicate member id %q", id)
		}
		if urls[u] {
			return nil, fmt.Errorf("cluster: duplicate member url %q", u)
		}
		ids[id], urls[u] = true, true
		out = append(out, Member{ID: id, URL: u})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	return out, nil
}

// OwnerOf returns the member ID that owns jobID under rendezvous
// hashing — the same ranking simsvc's OwnsID hook and the proxy path
// use, so every node computes the same owner for every job.
func OwnerOf(jobID string, memberIDs []string) string {
	r := fabric.Rank(jobID, memberIDs)
	if len(r) == 0 {
		return ""
	}
	return r[0]
}

// Owns returns the OwnsID predicate for simsvc.Config: self owns
// exactly the jobs rendezvous-ranked onto it.
func Owns(self string, memberIDs []string) func(id string) bool {
	ids := append([]string(nil), memberIDs...)
	return func(id string) bool { return OwnerOf(id, ids) == self }
}

// Config configures a cluster node.
type Config struct {
	Self    string          // this node's member ID (must appear in Members)
	Members []Member        // full membership, self included
	Service *simsvc.Service // the wrapped local sweep service

	Trace bool // record proxy / steal-claim spans, served at GET /cluster/trace

	// StealInterval is the fallback poll period of the steal loop, which
	// otherwise wakes on peers' hints and on local worker slots freeing up.
	// 0: default; <0: stealing off (no loop, no hints sent or honoured).
	StealInterval time.Duration
}

// Node wires one local Service into the cluster: request routing,
// scatter-gather listing, the steal endpoints, and the thief loop.
type Node struct {
	cfg  Config
	svc  *simsvc.Service
	ids  []string // member IDs, config order
	byID map[string]Member
	self Member

	// fab is the service's peer client, the only way a request leaves
	// this node for another: proxied requests, scatter-gather, steal
	// claims, completions and wake hints share its transport and its
	// per-peer breakers with the cache lookups.
	fab *fabric.Client

	tr *trace.Tracer
	jt *trace.JobTrace

	proxied     *obs.Counter // requests served for a peer-owned job
	proxyErrors *obs.Counter // owner-unreachable 503s
	scatters    *obs.Counter // scatter-gather listings fanned out
	steals      *obs.Counter // cells stolen from peers and completed
	stealErrors *obs.Counter // stolen cells that failed to run or post back; hints that failed to send
	hints       *obs.Counter // work-available hints received from peers

	// The steal loop's two mailboxes, both coalescing (capacity 1, senders
	// never block): hinted holds a peer's wake hint, queued says a local
	// submission left cells waiting and the peers should be hinted.
	hinted chan wakeup
	queued chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates cfg and starts the node's background stealing loop
// (when stealing is enabled and the cluster has peers to steal from).
// Close stops it.
func New(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: nil service")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = DefaultStealInterval
	}
	n := &Node{
		cfg:    cfg,
		svc:    cfg.Service,
		fab:    cfg.Service.Fabric(),
		byID:   make(map[string]Member, len(cfg.Members)),
		hinted: make(chan wakeup, 1),
		queued: make(chan struct{}, 1),
	}
	for _, m := range cfg.Members {
		n.ids = append(n.ids, m.ID)
		n.byID[m.ID] = m
		if m.ID == cfg.Self {
			n.self = m
		} else if !n.fab.HasPeer(m.URL) {
			return nil, fmt.Errorf("cluster: member %s (%s) is not one of the service's peers", m.ID, m.URL)
		}
	}
	if n.self.ID == "" {
		return nil, fmt.Errorf("cluster: self %q not in member list", cfg.Self)
	}
	if cfg.Trace {
		n.tr = trace.New(4)
		n.jt = n.tr.StartJob("cluster")
	}
	reg := n.svc.Registry()
	n.proxied = reg.NewCounter("sdo_cluster_proxied_requests_total",
		"Requests for peer-owned jobs this node proxied to their owner.")
	n.proxyErrors = reg.NewCounter("sdo_cluster_proxy_errors_total",
		"Proxied requests that failed because the owning node was unreachable.")
	n.scatters = reg.NewCounter("sdo_cluster_scatter_listings_total",
		"GET /sweeps listings answered by scatter-gather across the membership.")
	n.steals = reg.NewCounter("sdo_cluster_steals_total",
		"Queued cells this node stole from peers and completed back to their owner.")
	n.stealErrors = reg.NewCounter("sdo_cluster_steal_errors_total",
		"Stolen cells that failed to execute or to post back to their owner, plus wake hints that failed to reach a peer.")
	n.hints = reg.NewCounter("sdo_cluster_steal_hints_total",
		"Work-available hints received from cluster peers.")
	n.ctx, n.cancel = context.WithCancel(context.Background())
	if n.stealing() {
		n.wg.Add(1)
		go n.stealLoop()
	}
	return n, nil
}

// stealing reports whether this node runs the steal loop (and so sends
// and honours hints): StealInterval not negative, and peers to steal from.
func (n *Node) stealing() bool {
	return n.cfg.StealInterval > 0 && len(n.cfg.Members) > 1
}

// Close stops the stealing loop. The wrapped Service is not shut down;
// the caller owns its lifecycle.
func (n *Node) Close() {
	n.cancel()
	n.wg.Wait()
}

// others returns the membership minus self, rotated to start just past
// self's own position so concurrent thieves spread their first polls
// across different victims.
func (n *Node) others() []Member {
	var selfAt int
	for i, id := range n.ids {
		if id == n.self.ID {
			selfAt = i
			break
		}
	}
	out := make([]Member, 0, len(n.ids)-1)
	for i := 1; i < len(n.ids); i++ {
		out = append(out, n.byID[n.ids[(selfAt+i)%len(n.ids)]])
	}
	return out
}

// jobSortKey orders "sweep-N" IDs numerically so a merged cluster
// listing reads like one node's listing.
func jobSortKey(id string) (int, string) {
	if num, ok := strings.CutPrefix(id, "sweep-"); ok {
		if v, err := strconv.Atoi(num); err == nil {
			return v, id
		}
	}
	return int(^uint(0) >> 1), id // non-standard IDs sort last, lexically
}

func sortStatuses(sts []simsvc.Status) {
	sort.Slice(sts, func(i, j int) bool {
		ni, si := jobSortKey(sts[i].ID)
		nj, sj := jobSortKey(sts[j].ID)
		if ni != nj {
			return ni < nj
		}
		return si < sj
	})
}
