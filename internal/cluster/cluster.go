// Package cluster federates N sdoserver nodes into one logical sweep
// service. Every node answers every /sweeps request: job IDs are
// partitioned by rendezvous hashing over the member set, requests for a
// job the local node does not hold are transparently proxied to the
// ranked owner, and GET /sweeps is answered by scatter-gather across
// the membership. Work stealing between members is the service's own
// protocol (simsvc Config.StealFrom); this layer only routes.
//
// The layer is strictly additive: with a single member (or no cluster
// flags at all) the wrapped service behaves byte-identically to a
// standalone sdoserver.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fabric"
	"repro/internal/obs"
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

// ownerOf returns the member ID that owns jobID under rendezvous
// hashing — the same ranking simsvc's OwnsID hook and the proxy path
// use, so every node computes the same owner for every job.
func ownerOf(jobID string, memberIDs []string) string {
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
	return func(id string) bool { return ownerOf(id, ids) == self }
}

// Config configures a cluster node.
type Config struct {
	Self    string          // this node's member ID (must appear in Members)
	Members []Member        // full membership, self included
	Service *simsvc.Service // the wrapped local sweep service
}

// Node wires one local Service into the cluster: request routing and
// scatter-gather listing.
type Node struct {
	cfg  Config
	svc  *simsvc.Service
	ids  []string // member IDs, config order
	byID map[string]Member
	self Member

	// fab is the service's peer client, the only way a request leaves
	// this node for another: proxied requests and scatter-gather share its
	// transport and its per-peer breakers with the cache lookups and the
	// service's steal protocol.
	fab *fabric.Client

	proxied     *obs.Counter // requests served for a peer-owned job
	proxyErrors *obs.Counter // owner-unreachable 503s
	scatters    *obs.Counter // scatter-gather listings fanned out
}

// New validates cfg and wires the node. It starts nothing.
func New(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: nil service")
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	n := &Node{
		cfg:  cfg,
		svc:  cfg.Service,
		fab:  cfg.Service.Fabric(),
		byID: make(map[string]Member, len(cfg.Members)),
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
	reg := n.svc.Registry()
	n.proxied = reg.NewCounter("sdo_cluster_proxied_requests_total",
		"Requests for peer-owned jobs this node proxied to their owner.")
	n.proxyErrors = reg.NewCounter("sdo_cluster_proxy_errors_total",
		"Proxied requests that failed because the owning node was unreachable.")
	n.scatters = reg.NewCounter("sdo_cluster_scatter_listings_total",
		"GET /sweeps listings answered by scatter-gather across the membership.")
	return n, nil
}

// others returns the membership minus self, rotated to start just past
// self's own position.
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
