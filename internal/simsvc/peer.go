package simsvc

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs/trace"
)

// The service side of cache peering. The wire format of GET /cache/{key}
// is exactly one entry file — {key, sum, result} with the integrity
// checksum every entry carries — so a peer response is vetted by the
// same rule as a file read from disk (cacheEntry.verify). A corrupt peer
// can cost a lookup, never poison the determinism guarantee.

// decodeEntry parses and verifies one wire-form cache entry for key: an
// entry file, a peer's /cache response or a thief's stolen-cell
// completion. A key RunSpec.CacheKey cannot have made is refused before
// the body is read.
func decodeEntry(key string, body []byte) (*lruEntry, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("simsvc: %q is not a cache key", key)
	}
	var e cacheEntry
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, fmt.Errorf("simsvc: cache entry: %w", err)
	}
	if e.Key != key {
		return nil, fmt.Errorf("simsvc: cache entry key mismatch (got %q)", e.Key)
	}
	return e.verify()
}

// peerLookup consults the peer fabric for a content-addressed key under
// a peer-lookup trace span and caches what a peer answers in memory,
// returning the cache's copy. The answer is not written to this node's
// cache directory: the peer that served it holds it on its own disk, as
// an entry read back from this node's file is not written again. (A
// file write costs ~200 µs of kernel time; a sweep answered entirely by
// peers would pay one per cell for a second copy of a durable result.) Misses and every failure mode — a body that fails
// decodeEntry counts as a peer failure (breaker food), not a hit — come
// back as (nil, false): the caller's fallback is local simulation.
func (s *Service) peerLookup(root *trace.Span, key string) (*core.Result, bool) {
	if s.fab == nil {
		return nil, false
	}
	ps := root.Child(trace.PhasePeer)
	v, peerURL, ok := s.fab.Lookup(s.ctx, key, "/cache/"+key,
		func(body []byte) (any, error) { return decodeEntry(key, body) })
	ps.Set("hit", strconv.FormatBool(ok))
	if ok {
		ps.Set("peer", peerURL)
	}
	ps.Finish()
	if !ok {
		return nil, false
	}
	return s.cache.insert(v.(*lruEntry)).res, true
}

// registerPeerMetrics declares the fabric's /metrics view; its counters
// live in the fabric client. Per-peer breaker state is on /healthz.
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
}
