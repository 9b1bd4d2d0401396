// Command sdoserver runs the simulation service: a long-running HTTP
// server over the experiment harness with a bounded worker pool and a
// persistent content-addressed result cache. Because the simulator is
// fully deterministic, a repeated sweep is answered entirely from cache.
//
// Usage:
//
//	sdoserver                          # listen on :8344, cache in sdo-cache.json
//	sdoserver -addr :9000 -workers 4 -cache /var/lib/sdo/cache.json
//
// API (see README.md "Simulation service"):
//
//	curl -X POST localhost:8344/sweeps -d '{"workloads":["mcf_r"],"max_instrs":60000}'
//	curl localhost:8344/sweeps/sweep-1            # status
//	curl localhost:8344/sweeps/sweep-1/progress   # streamed per-run lines
//	curl localhost:8344/sweeps/sweep-1/export     # harness Export JSON
//	curl localhost:8344/metrics
//
// SIGINT/SIGTERM shut down gracefully: in-flight simulations finish and
// the cache is persisted, so a restarted server answers from cache.
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
	"repro/internal/faults"
	"repro/internal/simsvc"
)

func main() {
	var (
		addr          = flag.String("addr", ":8344", "listen address")
		cache         = flag.String("cache", "sdo-cache.json", "result-cache file (empty: in-memory only)")
		cacheMax      = flag.Int("cache-max", 0, "result-cache LRU bound in entries (0: unbounded)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 0, "result-cache LRU bound in encoded bytes (0: unbounded)")
		workers       = flag.Int("workers", 0, "concurrent simulations (0: all CPUs)")
		drain         = flag.Duration("drain", 2*time.Minute, "shutdown grace period for in-flight runs")
		pprofOn       = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		maxAttempts  = flag.Int("max-attempts", 0, "attempts per cell incl. retries of transient failures (0: default 3)")
		retryBackoff = flag.Duration("retry-backoff", 0, "base retry delay, doubling per attempt with jitter (0: default 200ms)")
		cellTimeout  = flag.Duration("cell-timeout", 0, "wall-clock deadline per cell attempt (0: none)")
		stallTimeout = flag.Duration("stall-timeout", 0, "kill a cell whose committed-instruction count stops advancing this long (0: off)")
		maxPending   = flag.Int("max-pending", 0, "pending-cell queue bound; submissions over it get 429 + Retry-After (0: unbounded)")
		jobTTL       = flag.Duration("job-ttl", 0, "evict finished jobs from the registry after this long (0: no TTL)")
		maxJobs      = flag.Int("max-jobs", 0, "job-registry bound; oldest finished jobs evicted past it (0: default 4096)")
		faultSpec    = flag.String("faults", "", "chaos fault-injection spec, e.g. seed=1,panic=0.05,slow=0.1 (also $"+faults.EnvVar+")")
		autoTimeout  = flag.Bool("auto-timeout", false, "auto-tune the per-cell timeout from the observed run-duration distribution (p99 × 3, clamped; -cell-timeout becomes the upper clamp)")

		speculate   = flag.Bool("speculate", false, "pre-execute predicted follow-up sweeps on idle workers (internal/specexec)")
		specBudget  = flag.Duration("spec-budget", 0, "wasted-CPU budget for speculation; exhausting it stops pre-execution (0: default 5m)")
		specJournal = flag.String("spec-journal", "", "submission-history journal file for the predictor (default: <cache>.history)")

		traceOn   = flag.Bool("trace", false, "record a span tree per sweep cell, served at GET /sweeps/{id}/trace and embedded in exports")
		traceJobs = flag.Int("trace-jobs", 0, "job traces retained (0: default 64)")
		flightN   = flag.Int("flight", 0, "flight-recorder ring size at GET /debug/flight (0: default 256)")

		journal = flag.String("journal", "", "job-journal file for durable resumable sweeps (default: <cache>.jobs when -cache is set; \"off\" disables)")

		peers         = flag.String("peers", "", "comma-separated peer base URLs for cache peering, e.g. http://10.0.0.2:8344,http://10.0.0.3:8344")
		peerTimeout   = flag.Duration("peer-timeout", 0, "per-request peer lookup deadline (0: default 2s)")
		peerHedge     = flag.Duration("peer-hedge", 0, "hedge a peer lookup to the next-ranked peer after this delay (0: default 75ms)")
		peerProbe     = flag.Duration("peer-probe", 0, "peer health-probe period (0: default 5s; negative: off)")
		peerMaxFanout = flag.Int("peer-fanout", 0, "max peers consulted per lookup (0: default 2)")

		clusterPeers  = flag.String("cluster-peers", "", "full cluster membership as comma-separated id=url pairs incl. this node, e.g. a=http://na:8344,b=http://nb:8344 (federates nodes into one logical /sweeps service)")
		nodeID        = flag.String("node-id", "", "this node's member id within -cluster-peers")
		stealInterval = flag.Duration("steal-interval", 0, "work-stealing fallback poll period; stealing normally wakes on peers' hints and on free worker slots (0: default 2s; negative: stealing off)")
		stealTTL      = flag.Duration("steal-lease-ttl", 0, "steal-lease duration; an expired lease's cell is reclaimed by its owner (0: default 30s)")
	)
	flag.Parse()

	// Resumable jobs ride alongside the result cache by default: the
	// journal is only useful when the cache that re-derives surviving
	// cells also persists.
	if *journal == "" && *cache != "" {
		*journal = *cache + ".jobs"
	}
	if *journal == "off" {
		*journal = ""
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}

	// Cluster mode: parse the membership and fold the other members into
	// the cache-peering list, so result lookups, artifact peering, and
	// steal completions all flow over the same fabric.
	var (
		members   []cluster.Member
		memberIDs []string
	)
	if *clusterPeers != "" {
		var err error
		members, err = cluster.ParseMembers(*clusterPeers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdoserver:", err)
			os.Exit(1)
		}
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "sdoserver: -cluster-peers requires -node-id")
			os.Exit(1)
		}
		for _, m := range members {
			memberIDs = append(memberIDs, m.ID)
			if m.ID != *nodeID && !slices.Contains(peerList, m.URL) {
				peerList = append(peerList, m.URL)
			}
		}
		if !slices.Contains(memberIDs, *nodeID) {
			fmt.Fprintf(os.Stderr, "sdoserver: -node-id %q not in -cluster-peers\n", *nodeID)
			os.Exit(1)
		}
	} else if *nodeID != "" {
		fmt.Fprintln(os.Stderr, "sdoserver: -node-id requires -cluster-peers")
		os.Exit(1)
	}

	inj, err := faults.Parse(*faultSpec)
	if err == nil && inj == nil {
		inj, err = faults.FromEnv(os.LookupEnv)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdoserver:", err)
		os.Exit(1)
	}
	if inj.Enabled() {
		fmt.Fprintf(os.Stderr, "sdoserver: CHAOS fault injection enabled: %+v\n", inj.Config())
	}

	cfg := simsvc.Config{
		Workers:         *workers,
		CachePath:       *cache,
		CacheMaxEntries: *cacheMax,
		CacheMaxBytes:   *cacheMaxBytes,
		MaxAttempts:     *maxAttempts,
		RetryBackoff:    *retryBackoff,
		CellTimeout:     *cellTimeout,
		StallTimeout:    *stallTimeout,
		MaxPendingCells: *maxPending,
		JobTTL:          *jobTTL,
		MaxJobs:         *maxJobs,
		Faults:          inj,
		AutoTimeout:     *autoTimeout,
		Speculate:       *speculate,
		SpecBudget:      *specBudget,
		SpecJournal:     *specJournal,
		Trace:           *traceOn,
		TraceMaxJobs:    *traceJobs,
		FlightEvents:    *flightN,

		JournalPath: *journal,

		Peers:             peerList,
		PeerTimeout:       *peerTimeout,
		PeerHedgeDelay:    *peerHedge,
		PeerProbeInterval: *peerProbe,
		PeerMaxFanout:     *peerMaxFanout,
	}
	if members != nil {
		cfg.OwnsID = cluster.Owns(*nodeID, memberIDs)
		cfg.PeerArtifacts = true
		cfg.WorkStealing = true
		cfg.StealLeaseTTL = *stealTTL
	}
	svc, err := simsvc.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdoserver:", err)
		os.Exit(1)
	}
	if n := svc.Cache().Len(); n > 0 {
		fmt.Fprintf(os.Stderr, "sdoserver: loaded %d cached results from %s\n", n, *cache)
	}
	if *journal != "" {
		h := svc.Health()
		if h.ResumingJobs > 0 {
			fmt.Fprintf(os.Stderr, "sdoserver: resuming %d interrupted sweep(s) from %s (healthz: degraded until replay completes)\n",
				h.ResumingJobs, *journal)
		} else {
			fmt.Fprintf(os.Stderr, "sdoserver: job journal at %s (sweeps survive restarts)\n", *journal)
		}
	}
	if len(peerList) > 0 {
		fmt.Fprintf(os.Stderr, "sdoserver: cache peering with %d peer(s): %s\n", len(peerList), strings.Join(peerList, ", "))
	}
	if *speculate {
		fmt.Fprintln(os.Stderr, "sdoserver: speculative pre-execution enabled (status at GET /spec)")
	}
	if *traceOn {
		fmt.Fprintln(os.Stderr, "sdoserver: sweep tracing enabled (traces at GET /sweeps/{id}/trace)")
	}

	handler := svc.Handler()
	var node *cluster.Node
	if members != nil {
		node, err = cluster.New(cluster.Config{
			Self:          *nodeID,
			Members:       members,
			Service:       svc,
			Trace:         *traceOn,
			StealInterval: *stealInterval,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdoserver:", err)
			os.Exit(1)
		}
		handler = node.Handler()
		fmt.Fprintf(os.Stderr, "sdoserver: cluster node %q in %d-member cluster (one logical /sweeps; work stealing %v)\n",
			*nodeID, len(members), *stealInterval >= 0)
	}
	if *pprofOn {
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
	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sdoserver: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "sdoserver:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "sdoserver: shutting down (finishing in-flight runs)")
	if node != nil {
		node.Close() // stop stealing before draining the local pool
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "sdoserver: http shutdown:", err)
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sdoserver: service shutdown:", err)
		os.Exit(1)
	}
	if *cache != "" {
		fmt.Fprintf(os.Stderr, "sdoserver: cache persisted to %s (%d results)\n", *cache, svc.Cache().Len())
	}
}
