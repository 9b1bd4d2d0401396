package simsvc

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// The service side of cache peering. The wire format of GET /cache/{key}
// is exactly one persisted cache entry — {key, sum, result} with the
// same integrity checksum the on-disk cache carries — so a peer response
// is vetted by the same rule as a loaded cache file (cacheEntry.verify).
// A corrupt peer can cost a lookup, never poison the determinism
// guarantee.

// decodeEntry parses and verifies one wire-form cache entry for key: a
// peer's /cache response or a thief's stolen-cell completion.
func decodeEntry(key string, body []byte) (core.Result, error) {
	var e cacheEntry
	if err := json.Unmarshal(body, &e); err != nil {
		return core.Result{}, fmt.Errorf("simsvc: peer entry: %w", err)
	}
	if e.Key != key {
		return core.Result{}, fmt.Errorf("simsvc: peer entry key mismatch (got %q)", e.Key)
	}
	r, _, err := e.verify()
	return r, err
}

// peerLookup consults the peer fabric for a content-addressed key under
// a peer-lookup trace span. Misses and every failure mode — a body that
// fails decodeEntry counts as a peer failure (breaker food), not a hit —
// come back as (zero, false): the caller's fallback is local simulation.
func (s *Service) peerLookup(root *trace.Span, key string) (core.Result, string, bool) {
	if s.fab == nil {
		return core.Result{}, "", false
	}
	ps := root.Child(trace.PhasePeer)
	start := time.Now()
	v, peerURL, ok := s.fab.Lookup(s.ctx, key, "/cache/"+key,
		func(body []byte) (any, error) { return decodeEntry(key, body) })
	s.peerDur.Observe(time.Since(start).Seconds())
	ps.Set("hit", strconv.FormatBool(ok))
	if ok {
		ps.Set("peer", peerURL)
	}
	ps.Finish()
	if !ok {
		return core.Result{}, "", false
	}
	return v.(core.Result), peerURL, true
}

// registerPeerMetrics declares the fabric's /metrics view (its counters
// live in the fabric client) and the peer-lookup latency histogram.
func (s *Service) registerPeerMetrics() {
	r, fab := s.reg, s.fab
	r.NewCounterFunc("sdo_peer_hits_total", "Cache misses answered by a peer node.",
		func() float64 { return float64(fab.Stats().Hits) })
	r.NewCounterFunc("sdo_peer_misses_total", "Peer lookups no peer could answer (fell back to local simulation).",
		func() float64 { return float64(fab.Stats().Misses) })
	r.NewCounterFunc("sdo_peer_errors_total", "Peer request failures (down, slow, HTTP error, corrupt response).",
		func() float64 { return float64(fab.Stats().Errors) })
	r.NewCounterFunc("sdo_peer_hedges_total", "Peer lookups hedged to a second peer after the hedge delay.",
		func() float64 { return float64(fab.Stats().Hedges) })
	r.NewGaugeFunc("sdo_peers_configured", "Peers in the static peer list.",
		func() float64 { return float64(fab.Peers()) })
	r.NewGaugeFunc("sdo_peers_available", "Peers whose circuit breaker currently admits lookups.",
		func() float64 { return float64(fab.Available()) })
	s.peerDur = r.NewHistogram("sdo_peer_lookup_seconds",
		"Wall time of peer cache lookups (hit or miss).", obs.DefaultLatencyBuckets())
}
