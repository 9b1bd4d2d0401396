// Command sdoserver runs the simulation service: a long-running HTTP
// server over the experiment harness with a bounded worker pool and a
// persistent content-addressed result cache. Because the simulator is
// fully deterministic, a repeated sweep is answered entirely from cache.
//
// Usage:
//
//	sdoserver                          # listen on :8344, cache in sdo-cache/
//	sdoserver -addr :9000 -workers 4 -cache /var/lib/sdo/cache
//
// API (see README.md "Simulation service"):
//
//	curl -X POST localhost:8344/sweeps -d '{"workloads":["mcf_r"],"max_instrs":60000}'
//	curl localhost:8344/sweeps/sweep-1            # status
//	curl localhost:8344/sweeps/sweep-1/progress   # streamed per-run lines
//	curl localhost:8344/sweeps/sweep-1/export     # harness Export JSON
//	curl localhost:8344/metrics
//
// The cache directory holds one file per result, written before any
// sweep sees the result, so a restarted server answers from cache and,
// after a crash, a resubmitted sweep re-simulates only the cells no sweep
// had seen finish. SIGINT/SIGTERM shut down gracefully: in-flight
// simulations finish. Sweep IDs do not survive a restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/simsvc"
)

// options is everything the command line sets: the service configuration
// its flags bind to directly, plus the process- and topology-level
// settings main resolves before building the service.
type options struct {
	svc simsvc.Config

	addr         string
	drain        time.Duration
	pprof        bool
	peers        string
	clusterPeers string
	nodeID       string
}

// registerFlags declares every sdoserver flag on fs, bound to the
// returned options (README.md documents each one; TestFlagsDocumented
// holds the two together).
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.svc
	fs.StringVar(&o.addr, "addr", ":8344", "listen address")
	fs.StringVar(&c.CachePath, "cache", "sdo-cache", "result-cache directory, one file per result (empty: in-memory only)")
	fs.Int64Var(&c.CacheMaxBytes, "cache-max-bytes", 0, "result-cache LRU bound in encoded bytes (0: unbounded)")
	fs.IntVar(&c.Workers, "workers", 0, "concurrent simulations (0: all CPUs)")
	fs.DurationVar(&o.drain, "drain", 2*time.Minute, "shutdown grace period for in-flight runs")
	fs.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")

	fs.DurationVar(&c.CellTimeout, "cell-timeout", 0, "wall-clock deadline per cell; a cell runs once (0: none)")
	fs.IntVar(&c.MaxPendingCells, "max-pending", 0, "pending-cell queue bound; submissions over it get 429 + Retry-After (0: unbounded)")
	fs.DurationVar(&c.JobTTL, "job-ttl", 0, "evict finished jobs from the registry after this long (0: no TTL)")
	fs.IntVar(&c.MaxJobs, "max-jobs", 0, "job-registry bound; oldest finished jobs evicted past it (0: default 4096)")

	fs.BoolVar(&c.Trace, "trace", false, "record a span tree per sweep cell, served at GET /sweeps/{id}/trace and embedded in exports")

	fs.StringVar(&o.peers, "peers", "", "comma-separated peer base URLs for cache peering, e.g. http://10.0.0.2:8344,http://10.0.0.3:8344")

	fs.StringVar(&o.clusterPeers, "cluster-peers", "", "full cluster membership as comma-separated id=url pairs incl. this node, e.g. a=http://na:8344,b=http://nb:8344 (federates nodes into one logical /sweeps service)")
	fs.StringVar(&o.nodeID, "node-id", "", "this node's member id within -cluster-peers")
	fs.DurationVar(&c.StealLeaseTTL, "steal-lease-ttl", 0, "steal-lease duration; an expired lease's cell is reclaimed by its owner (0: default 30s; read only with -cluster-peers)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	cfg := &o.svc

	for _, p := range strings.Split(o.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}

	// Cluster mode: parse the membership and fold the other members into
	// the cache-peering list, so result lookups and the steal protocol
	// flow over the same fabric. The node steals from every other member,
	// polling them in ring order from just past itself, so the members'
	// first claims spread across different owners.
	var (
		members   []cluster.Member
		memberIDs []string
	)
	if o.clusterPeers != "" {
		var err error
		members, err = cluster.ParseMembers(o.clusterPeers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdoserver:", err)
			os.Exit(1)
		}
		if o.nodeID == "" {
			fmt.Fprintln(os.Stderr, "sdoserver: -cluster-peers requires -node-id")
			os.Exit(1)
		}
		for _, m := range members {
			memberIDs = append(memberIDs, m.ID)
			if m.ID != o.nodeID && !slices.Contains(cfg.Peers, m.URL) {
				cfg.Peers = append(cfg.Peers, m.URL)
			}
		}
		self := slices.Index(memberIDs, o.nodeID)
		if self < 0 {
			fmt.Fprintf(os.Stderr, "sdoserver: -node-id %q not in -cluster-peers\n", o.nodeID)
			os.Exit(1)
		}
		for i := 1; i < len(members); i++ {
			cfg.StealFrom = append(cfg.StealFrom, members[(self+i)%len(members)].URL)
		}
	} else if o.nodeID != "" {
		fmt.Fprintln(os.Stderr, "sdoserver: -node-id requires -cluster-peers")
		os.Exit(1)
	}

	if members != nil {
		cfg.OwnsID = cluster.Owns(o.nodeID, memberIDs)
	}
	svc, err := simsvc.New(*cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdoserver:", err)
		os.Exit(1)
	}
	if len(cfg.Peers) > 0 {
		fmt.Fprintf(os.Stderr, "sdoserver: cache peering with %d peer(s): %s\n", len(cfg.Peers), strings.Join(cfg.Peers, ", "))
	}
	if cfg.Trace {
		fmt.Fprintln(os.Stderr, "sdoserver: sweep tracing enabled (traces at GET /sweeps/{id}/trace)")
	}

	handler := svc.Handler()
	if members != nil {
		node, err := cluster.New(cluster.Config{Self: o.nodeID, Members: members, Service: svc})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdoserver:", err)
			os.Exit(1)
		}
		handler = node.Handler()
		fmt.Fprintf(os.Stderr, "sdoserver: cluster node %q in %d-member cluster (one logical /sweeps; work stealing %v)\n",
			o.nodeID, len(members), len(cfg.StealFrom) > 0)
	}
	if o.pprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(os.Stderr, "sdoserver: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Addr: o.addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sdoserver: listening on %s\n", o.addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "sdoserver:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "sdoserver: shutting down (finishing in-flight runs)")
	shutCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "sdoserver: http shutdown:", err)
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sdoserver: service shutdown:", err)
		os.Exit(1)
	}
}
