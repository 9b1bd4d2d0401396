package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs/trace"
)

// The service side of cache peering. A peer asks POST /cache/lookup for
// a set of keys (fabric.Lookup) and is answered with each held key's
// entry file (fabric.ServeLookup): {key, sum, result} with the integrity
// checksum every entry carries, so a peer's entry is vetted by the same
// rule as a file read from disk (decodeEntry). A corrupt peer can cost a
// lookup, never poison the determinism guarantee.

// The envelope of an entry file, as cacheEntry.encode writes it: the
// key, a 16-digit checksum and the indented result.
const (
	entryHead   = "{\n  \"key\": \""
	entrySumKey = "\",\n  \"sum\": \""
	entryResKey = "\",\n  \"result\": "
	entryTail   = "\n}\n"
	entrySumLen = 16
)

// errNotEntry rejects bytes that do not have an entry file's envelope.
var errNotEntry = errors.New("simsvc: cache entry: not an entry file")

// decodeEntry parses and verifies one entry file's bytes for key — a
// file read from disk, a peer's lookup answer or a thief's stolen-cell
// completion — once: the envelope must be the one encode writes, the
// checksum must match the result's canonical (compact) encoding, and the
// result must decode. The bytes themselves become the entry's wire form,
// so an entry is never re-encoded. A key RunSpec.CacheKey cannot have
// made is refused before the body is read.
func decodeEntry(key string, body []byte) (*lruEntry, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("simsvc: %q is not a cache key", key)
	}
	rest, ok := bytes.CutPrefix(body, []byte(entryHead))
	if !ok {
		return nil, errNotEntry
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(key+entrySumKey)); !ok {
		return nil, errors.New("simsvc: cache entry key mismatch")
	}
	if len(rest) < entrySumLen+len(entryResKey)+len(entryTail) ||
		!bytes.HasPrefix(rest[entrySumLen:], []byte(entryResKey)) || !bytes.HasSuffix(rest, []byte(entryTail)) {
		return nil, errNotEntry
	}
	sum := string(rest[:entrySumLen])
	result := rest[entrySumLen+len(entryResKey) : len(rest)-len(entryTail)]
	var compact bytes.Buffer
	compact.Grow(len(result))
	if err := json.Compact(&compact, result); err != nil {
		return nil, fmt.Errorf("simsvc: cache entry result: %w", err)
	}
	if entrySum(key, compact.Bytes()) != sum {
		return nil, errors.New("simsvc: cache entry checksum mismatch")
	}
	r := new(core.Result)
	if err := json.Unmarshal(compact.Bytes(), r); err != nil {
		return nil, fmt.Errorf("simsvc: cache entry result: %w", err)
	}
	return &lruEntry{key: key, res: r, wire: body}, nil
}

// peerBatch is one job's peer lookup. The job's first cell to miss
// locally asks the peers, in one batched fabric lookup, for every key of
// the job the node does not hold; the job's other cells wait for that
// lookup instead of each making a round trip of its own. Each hit is
// handed out once, to the cell that takes it.
type peerBatch struct {
	once  sync.Once
	mu    sync.Mutex
	cells []harness.RunSpec // the job's cells, until the lookup runs or the job ends
	hits  map[string]fabric.Hit
}

// close lets a finished job's cells go, so a retained job holds no
// specs; a lookup that has not started then asks for nothing. Nil-safe.
func (pb *peerBatch) close() {
	if pb != nil {
		pb.mu.Lock()
		pb.cells = nil
		pb.mu.Unlock()
	}
}

// peerHit resolves key from its job's peer batch under a peer-lookup
// trace span, which covers the cell's wait for the lookup, and caches
// what a peer answered in memory, returning the cache's copy. The
// answer is not written to this node's cache directory: the peer that
// served it holds it on its own disk, as an entry read back from this
// node's file is not written again. (A file write costs ~200 µs of
// kernel time; a sweep answered entirely by peers would pay one per
// cell for a second copy of a durable result.) A key no peer answered
// with an entry decodeEntry accepts — a miss, a failed peer, a corrupt
// entry, a key the batch did not carry — comes back as (nil, false):
// the caller's fallback is local simulation.
func (s *Service) peerHit(root *trace.Span, pb *peerBatch, key string) (*core.Result, bool) {
	if pb == nil {
		return nil, false
	}
	ps := root.Child(trace.PhasePeer)
	pb.once.Do(func() {
		pb.mu.Lock()
		cells := pb.cells
		pb.cells = nil
		pb.mu.Unlock()
		pb.hits = s.lookupPeers(cells)
	})
	pb.mu.Lock()
	h, ok := pb.hits[key]
	delete(pb.hits, key)
	pb.mu.Unlock()
	ps.Set("hit", strconv.FormatBool(ok))
	if ok {
		ps.Set("peer", h.Peer)
	}
	ps.Finish()
	if !ok {
		return nil, false
	}
	return s.cache.insert(h.Val.(*lruEntry)).res, true
}

// lookupPeers asks the peers for the keys of cells this node does not
// hold, in memory or on disk.
func (s *Service) lookupPeers(cells []harness.RunSpec) map[string]fabric.Hit {
	var keys []string
	for _, c := range cells {
		if k, err := c.CacheKey(); err == nil && !s.cache.Contains(k) {
			keys = append(keys, k)
		}
	}
	return s.fab.Lookup(s.ctx, "/cache/lookup", keys, func(key string, body []byte) (any, error) {
		// body shares the response's buffer; the cache keeps its own copy.
		return decodeEntry(key, bytes.Clone(body))
	})
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
