package simsvc

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

// persistFailureLimit is how many consecutive entry-write failures
// switch a persistent cache to memory-only mode.
const persistFailureLimit = 3

// Cache is a content-addressed store of completed simulation results,
// keyed by harness.RunSpec.CacheKey. It is safe for concurrent use and
// keeps hit/miss/eviction/corruption counters for the service's /metrics
// endpoint.
//
// A persistent cache is a directory holding one file per result,
// <dir>/<key>.json, whose bytes are the entry's wire form — exactly what
// POST /cache/lookup answers for the key. A new result's file is written
// before the entry becomes visible, so a result anyone has seen survives
// a process crash (one a peer answered stays durable at that peer). In
// front of the directory sits an in-memory LRU with an optional bound on
// its encoded size; a memory miss reads through to the file, so an
// evicted entry, or one a previous process wrote, comes back from disk.
//
// A cached result exists once. Each entry holds one heap copy of the
// result and its wire encoding, both made when the entry is: by Put for
// a freshly simulated result, by decodeEntry for one read from disk or
// sent by a thief and by decodeResult for a peer's (peerHit), which keep
// the bytes verifyEntry verified. Get hands
// out that copy, so every job and export reading the key shares it and
// none may write to it; a peer's lookup answer and the entry's file are
// the stored bytes, never a new encoding.
type Cache struct {
	mu        sync.Mutex
	maxBytes  int64 // byte bound over encoded entry sizes (0: unbounded)
	bytes     int64 // current total encoded size
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	// evictedBytes sums the encoded sizes of evicted entries, for
	// capacity planning via /metrics.
	evictedBytes uint64
	// corrupt counts entry files dropped by verification on read.
	corrupt uint64

	// dir holds one file per result ("": memory-only). Past
	// persistFailureLimit consecutive write failures the cache is
	// degraded: it stops reading and writing dir.
	dir      string
	failures atomic.Uint64 // entry writes that failed
	streak   atomic.Uint64 // consecutive entry-write failures
	degraded atomic.Bool

	// event reports persist-failed, cache-degraded and cache-load-failed.
	event func(kind, detail string)
}

// lruEntry is one cached result. Nothing in it changes once it is made.
type lruEntry struct {
	key  string
	res  *core.Result // shared with every reader, read-only
	wire []byte       // the entry's file and lookup answer; nil if the result has no JSON encoding
}

// newEntry makes the entry for a freshly computed result: one heap copy,
// encoded once.
func newEntry(key string, r core.Result) *lruEntry {
	e := &lruEntry{key: key, res: &r}
	if raw, err := json.Marshal(e.res); err == nil {
		sum := entrySum(key, raw)
		e.wire = cacheEntry{Key: key, Sum: string(sum[:]), Result: raw}.encode()
	}
	return e
}

// size is the entry's accounted size: key plus wire encoding, the bytes
// its file holds.
func (e *lruEntry) size() int64 { return int64(len(e.key) + len(e.wire)) }

// register declares the cache's /metrics view on r; the values live
// under the cache's own lock (or in atomics) and are sampled at scrape
// time.
func (c *Cache) register(r *obs.Registry) {
	ctr, gau := r.NewCounterFunc, r.NewGaugeFunc
	ctr("sdo_cache_hits_total", "Result-cache hits.",
		func() float64 { h, _ := c.Stats(); return float64(h) })
	ctr("sdo_cache_misses_total", "Result-cache misses.",
		func() float64 { _, m := c.Stats(); return float64(m) })
	ctr("sdo_cache_evictions_total", "Results evicted by the LRU size bound.",
		func() float64 { return float64(c.Evictions()) })
	gau("sdo_cache_entries", "Results currently cached.",
		func() float64 { return float64(c.Len()) })
	gau("sdo_cache_bytes", "Total encoded size of cached results.",
		func() float64 { return float64(c.heldBytes()) })
	ctr("sdo_cache_evicted_bytes_total", "Encoded bytes evicted by the cache bounds.",
		func() float64 { return float64(c.evictedTotal()) })
	ctr("sdo_cache_corrupt_entries_total", "Persisted entries dropped by checksum verification.",
		func() float64 { return float64(c.corruptTotal()) })
	ctr("sdo_cache_persist_failures_total", "Cache persist attempts that failed.",
		func() float64 { return float64(c.failures.Load()) })
	gau("sdo_cache_persistence_enabled", "1 while the cache persists to disk, 0 when memory-only.",
		func() float64 {
			if c.dir == "" || c.degraded.Load() {
				return 0
			}
			return 1
		})
}

// NewCache returns an empty, unbounded, memory-only cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*list.Element), order: list.New()}
}

// openCache returns an empty cache over dir ("": memory-only), creating
// the directory if needed; that is all the disk work it does. Results
// already in dir are read on demand.
func openCache(dir string, event func(kind, detail string)) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("simsvc: cache directory: %w "+
				"(a single-file cache from an older version is not read: move it aside)", err)
		}
	}
	c := NewCache()
	c.dir, c.event = dir, event
	return c, nil
}

// validKey reports whether key has the shape RunSpec.CacheKey gives
// every key: 64 lowercase hex digits. Only such a key names a file, so a
// key from outside the process (a URL path, a query) never reaches the
// file system otherwise.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path is key's entry file, or false when the cache has no disk to use
// or key is not a cache key.
func (c *Cache) path(key string) (string, bool) {
	if c.dir == "" || c.degraded.Load() || !validKey(key) {
		return "", false
	}
	return filepath.Join(c.dir, key+".json"), true
}

// SetMaxBytes bounds the in-memory total encoded size to n bytes,
// evicting least-recently-used entries immediately if it is already
// over; n <= 0 removes the bound. Entry files are not bounded: an
// evicted entry is read back from its file on demand.
func (c *Cache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.maxBytes = n
	c.evictOver()
}

// heldBytes returns the total accounted size of the entries in memory.
func (c *Cache) heldBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// evictedTotal returns the cumulative accounted size of evicted entries.
func (c *Cache) evictedTotal() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictedBytes
}

// evictOver drops LRU entries until the byte bound is met. Caller holds
// mu.
func (c *Cache) evictOver() {
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			return
		}
		e := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size()
		c.evictedBytes += uint64(e.size())
		c.evictions++
	}
}

// lookup is the one read path: memory first, then the entry's file,
// which is vetted and kept in memory (it is not written back). touch
// refreshes a memory hit's recency: a demand access does, a peek does
// not.
func (c *Cache) lookup(key string, touch bool) (*lruEntry, bool) {
	if e, ok := c.held(key, touch); ok {
		return e, true
	}
	e, ok := c.read(key)
	if !ok {
		return nil, false
	}
	return c.insert(e), true
}

// held returns key's entry if it is in memory, without reading its file.
func (c *Cache) held(key string, touch bool) (*lruEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if touch {
		c.order.MoveToFront(el)
	}
	return el.Value.(*lruEntry), true
}

// read loads key's entry file. A missing file is a miss; one that fails
// verification is a miss counted as corrupt (the re-simulated cell
// overwrites it); any other read error is a miss reported as
// cache-load-failed.
func (c *Cache) read(key string) (*lruEntry, bool) {
	path, ok := c.path(key)
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false
	}
	if err != nil {
		c.event("cache-load-failed", fmt.Sprintf("%s: %v", key, err))
		return nil, false
	}
	e, err := decodeEntry(key, data)
	if err != nil {
		c.mu.Lock()
		c.corrupt++
		c.mu.Unlock()
		return nil, false
	}
	return e, true
}

// Get looks up a result, counting the access as a hit or a miss — a
// result read from its file is a hit — and refreshing the entry's
// recency. The result is the cache's own copy, shared with every other
// reader of the key: it must not be modified.
func (c *Cache) Get(key string) (*core.Result, bool) {
	e, ok := c.lookup(key, true)
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.res, true
}

// Contains reports whether key is cached, without touching the hit/miss
// counters or the LRU order — the steal registry peeks at the cache to
// skip already-answered cells, and a peek is not a demand lookup.
func (c *Cache) Contains(key string) bool {
	_, ok := c.lookup(key, false)
	return ok
}

// PeekEncoded returns a cached entry's wire form — key, integrity
// checksum, canonical result encoding; the bytes its file holds —
// without touching the hit/miss counters or the LRU order. This is what
// POST /cache/lookup answers peer nodes with: a peer's lookup is not a
// demand access of this node's cache, so it must not skew the local
// hit-rate metrics. A non-key is a miss that opens no file. The bytes
// are shared and must not be modified.
func (c *Cache) PeekEncoded(key string) ([]byte, bool) {
	e, ok := c.lookup(key, false)
	if !ok || e.wire == nil {
		return nil, false
	}
	return e.wire, true
}

// Put stores a freshly computed result as the most recently used entry,
// evicting the least recently used ones past the bound, and returns the
// cache's copy of it — the one every later Get shares.
func (c *Cache) Put(key string, r core.Result) *core.Result {
	return c.add(newEntry(key, r)).res
}

// add stores a made entry (Put's, or a thief's completion decodeEntry
// accepted) and returns the entry the cache now holds for its key. It is
// the one door for a result this node is the durable home of — an
// executed cell, a stolen cell's run on the thief and its completion on
// the owner: a key not in memory has its file written before the entry
// is inserted, so whoever sees the entry — a waiter settle wakes, a peer,
// the owner of a stolen cell — sees a result that is already on disk. A
// key names its content, so an entry already in memory holds the same
// result: it is kept and refreshed, and every reader goes on sharing the
// one copy.
func (c *Cache) add(e *lruEntry) *lruEntry {
	c.mu.Lock()
	el, ok := c.entries[e.key]
	if ok {
		c.order.MoveToFront(el)
	}
	c.mu.Unlock()
	if ok {
		return el.Value.(*lruEntry)
	}
	c.persist(e)
	return c.insert(e)
}

// insert puts e in memory unless its key is already there, and returns
// the entry held for the key. It writes nothing: it is how a result read
// from a file or a peer, which already has a durable home, is kept.
func (c *Cache) insert(e *lruEntry) *lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry)
	}
	c.entries[e.key] = c.order.PushFront(e)
	c.bytes += e.size()
	c.evictOver()
	return e
}

// persist writes e's file (atomicWrite: a crash leaves the old file or
// the new one), tracking consecutive failures; past persistFailureLimit
// the cache degrades to memory-only instead of hammering a dead disk.
// An entry with no encoding stays memory-only.
func (c *Cache) persist(e *lruEntry) {
	path, ok := c.path(e.key)
	if !ok || e.wire == nil {
		return
	}
	err := atomicWrite(path, e.wire)
	if err == nil {
		c.streak.Store(0)
		return
	}
	c.failures.Add(1)
	streak := c.streak.Add(1)
	c.event("persist-failed", err.Error())
	if streak >= persistFailureLimit && c.degraded.CompareAndSwap(false, true) {
		c.event("cache-degraded",
			fmt.Sprintf("persistence disabled after %d consecutive failures: %v", streak, err))
	}
}

// Len returns the number of results in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many entries the LRU bound has dropped.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// corruptTotal returns how many entry files failed verification and
// were dropped on read.
func (c *Cache) corruptTotal() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupt
}

// cacheEntry is the wire form of one result: an entry file, a peer's
// lookup answer and a stolen cell's completion.
type cacheEntry struct {
	Key string `json:"key"`
	// Sum is entrySum over (Key, canonical Result encoding); verified on
	// read (verifyEntry) so a bit-flipped or hand-edited entry becomes a
	// miss, not a wrong answer.
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// encode renders the entry as every JSON body of the service is written
// (harness.IndentedJSON), or nil if it cannot be encoded.
func (ce cacheEntry) encode() []byte {
	b, err := harness.IndentedJSON(ce)
	if err != nil {
		return nil
	}
	return b
}

// entrySum is the per-entry integrity checksum: sha256 over the key, a
// '|' and the result's canonical (compact) JSON encoding, truncated to
// 16 hex digits — corruption detection, not cryptography. One pass over
// result feeds the hash its bytes outside JSON whitespace, leaving out
// the spaces, tabs and line breaks that lie outside strings: for valid
// JSON exactly json.Compact's output, so an indented result and the
// compact bytes json.Marshal writes have one sum and neither is copied.
func entrySum(key string, result []byte) (sum [entrySumLen]byte) {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{'|'})
	start, n := 0, len(result)
	for i := 0; i < n; {
		switch result[i] {
		case '"': // a string is hashed whole, whitespace and all
			for i++; i < n; {
				c := result[i]
				i++
				if c == '"' {
					break
				}
				if c == '\\' {
					i++
				}
			}
		case ' ', '\t', '\n', '\r':
			if start < i {
				h.Write(result[start:i])
			}
			i++
			start = i
		default:
			i++
		}
	}
	if start < n {
		h.Write(result[start:])
	}
	var d [sha256.Size]byte
	hex.Encode(sum[:], h.Sum(d[:0])[:entrySumLen/2])
	return sum
}

// atomicWrite replaces path with data, via a temp file in the same
// directory plus rename: readers (and a crash) see the old contents or
// the new, never a torn file.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
