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
	"repro/internal/obs/trace"
)

// The service side of cache peering. A peer asks POST /cache/lookup for
// a set of keys (fabric.Lookup) and is answered with each held key's
// entry file (fabric.ServeLookup): {key, sum, result} with the integrity
// checksum every entry carries, so a peer's entry is vetted by the same
// rule as a file read from disk (verifyEntry). A corrupt peer can cost a
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

// verifyEntry checks one entry's bytes for key — a file read from disk,
// a peer's lookup answer or a thief's stolen-cell completion — and
// returns the result's bytes within body: the envelope must be the one
// encode writes and the checksum must match the result (entrySum, one
// pass over the bytes). It does not decode the result, so bytes that
// are not JSON can pass it; decodeResult, which every reader ends in,
// refuses them. A key RunSpec.CacheKey cannot have made is refused
// before the body is read.
func verifyEntry(key string, body []byte) ([]byte, error) {
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
	result := rest[entrySumLen+len(entryResKey) : len(rest)-len(entryTail)]
	if sum := entrySum(key, result); !bytes.Equal(sum[:], rest[:entrySumLen]) {
		return nil, errors.New("simsvc: cache entry checksum mismatch")
	}
	return result, nil
}

// decodeEntry verifies and decodes one entry's bytes for key, which
// become its wire form: a file read from disk or a thief's completion.
func decodeEntry(key string, body []byte) (*lruEntry, error) {
	result, err := verifyEntry(key, body)
	if err != nil {
		return nil, err
	}
	return decodeResult(key, body, result)
}

// decodeResult makes the entry for bytes verifyEntry accepted: result,
// the result's bytes, must decode — the one check that the checksummed
// bytes are JSON at all — and wire becomes the entry's wire form, so an
// entry is never re-encoded.
func decodeResult(key string, wire, result []byte) (*lruEntry, error) {
	r := new(core.Result)
	if err := json.Unmarshal(result, r); err != nil {
		return nil, fmt.Errorf("simsvc: cache entry result: %w", err)
	}
	return &lruEntry{key: key, res: r, wire: wire}, nil
}

// peerEntry is a peer's answer for one key that verifyEntry accepted:
// the entry's bytes and its result's bytes, both in the lookup's
// response buffer. The cell that takes it decodes it (peerHit).
type peerEntry struct{ wire, result []byte }

// peerBatch is one job's peer lookup. The job's first cell to miss
// locally asks the peers, in one batched fabric lookup, for every key of
// the job the node does not hold; the job's other cells wait for that
// lookup instead of each making a round trip of its own. Each hit is
// handed out once, to the cell that takes it.
type peerBatch struct {
	once   sync.Once
	mu     sync.Mutex
	keys   []string              // the job's cell keys, until the lookup runs or the job ends
	hits   map[string]fabric.Hit // untaken answers (peerEntry values), until the job ends
	closed bool
}

// close lets a finished job's keys and untaken hits go, so a retained
// job holds neither: a lookup that has not started then asks for
// nothing, and one under way keeps no answer. Nil-safe.
func (pb *peerBatch) close() {
	if pb != nil {
		pb.mu.Lock()
		pb.keys, pb.hits, pb.closed = nil, nil, true
		pb.mu.Unlock()
	}
}

// take removes and returns key's hit once the batch's lookup has run;
// the first caller runs it.
func (pb *peerBatch) take(key string, lookup func([]string) map[string]fabric.Hit) (fabric.Hit, bool) {
	pb.once.Do(func() {
		pb.mu.Lock()
		keys := pb.keys
		pb.keys = nil
		pb.mu.Unlock()
		hits := lookup(keys)
		pb.mu.Lock()
		if !pb.closed {
			pb.hits = hits
		}
		pb.mu.Unlock()
	})
	pb.mu.Lock()
	defer pb.mu.Unlock()
	h, ok := pb.hits[key]
	delete(pb.hits, key)
	return h, ok
}

// peerHit resolves key from its job's peer batch under a peer-lookup
// trace span, which covers the cell's wait for the lookup and the decode
// of its answer, and caches what a peer answered in memory, returning
// the cache's copy. The lookup only verifies each answer; the cell that
// takes one decodes it here, on its own worker, so a job's workers
// decode in parallel and an answer no cell takes is never decoded. The
// answer is not written to this node's cache directory: the peer that
// served it holds it on its own disk, as an entry read back from this
// node's file is not written again. (A file write costs ~200 µs of
// kernel time; a sweep answered entirely by peers would pay one per cell
// for a second copy of a durable result.) A key no peer answered with a
// verified entry — a miss, a failed peer, a corrupt entry, a key the
// batch did not carry — or whose verified result does not decode (a
// peer-undecodable fault event naming the peer and the key) comes back
// as (nil, false): the caller's fallback is local simulation.
func (s *Service) peerHit(root *trace.Span, pb *peerBatch, key string) (*core.Result, bool) {
	if pb == nil {
		return nil, false
	}
	ps := root.Child(trace.PhasePeer)
	h, ok := pb.take(key, s.lookupPeers)
	var e *lruEntry
	if ok {
		// The answer shares the response's buffer; the entry keeps its
		// own copy of the bytes.
		pe := h.Val.(peerEntry)
		var err error
		if e, err = decodeResult(key, bytes.Clone(pe.wire), pe.result); err != nil {
			s.peerUndecoded.Add(1)
			s.event("peer-undecodable", fmt.Sprintf("peer %s, key %s: %v", h.Peer, key, err))
			ok = false
		}
	}
	ps.Set("hit", strconv.FormatBool(ok))
	if ok {
		ps.Set("peer", h.Peer)
	}
	ps.Finish()
	if !ok {
		return nil, false
	}
	return s.cache.insert(e).res, true
}

// lookupPeers asks the peers for the keys this node does not hold, in
// memory or on disk, and verifies each answer: one that fails is a miss
// and a strike against its peer (fabric.Lookup).
func (s *Service) lookupPeers(keys []string) map[string]fabric.Hit {
	var ask []string
	for _, k := range keys {
		if !s.cache.Contains(k) {
			ask = append(ask, k)
		}
	}
	return s.fab.Lookup(s.ctx, "/cache/lookup", ask, func(key string, body []byte) (any, error) {
		result, err := verifyEntry(key, body)
		return peerEntry{wire: body, result: result}, err
	})
}

// registerPeerMetrics declares the fabric's /metrics view; its counters
// live in the fabric client. A verified answer whose result does not
// decode was counted a hit there, and is a miss here. Per-peer breaker
// state is on /healthz.
func (s *Service) registerPeerMetrics() {
	r, fab := s.reg, s.fab
	r.NewCounterFunc("sdo_peer_hits_total", "Cache misses answered by a peer node.",
		func() float64 { return float64(fab.Stats().Hits - s.peerUndecoded.Load()) })
	r.NewCounterFunc("sdo_peer_misses_total", "Peer lookups no peer could answer (fell back to local simulation).",
		func() float64 { return float64(fab.Stats().Misses + s.peerUndecoded.Load()) })
	r.NewCounterFunc("sdo_peer_errors_total", "Peer request failures (down, slow, HTTP error, corrupt response).",
		func() float64 { return float64(fab.Stats().Errors) })
	r.NewCounterFunc("sdo_peer_hedges_total", "Peer lookups hedged to a second peer after the hedge delay.",
		func() float64 { return float64(fab.Stats().Hedges) })
}
