package simsvc

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// cacheFileVersion versions the on-disk cache format (the JSON shape of
// core.Result). A mismatch discards the file rather than decoding stale
// counters into new fields.
//
// v2: core.Result gained the interval time series (Intervals,
// ROBOccHist, LQOccHist) and RunSpec gained IntervalCycles.
// v3: per-entry integrity checksums (cacheEntry.Sum over the canonical
// result encoding), so a bit-flipped entry is detected and dropped
// instead of silently poisoning the determinism guarantee.
const cacheFileVersion = 3

// CorruptSuffix is appended to an unparseable cache file's name when the
// loader quarantines it (the file is kept for forensics, the cache starts
// empty).
const CorruptSuffix = ".corrupt"

// Cache is a content-addressed store of completed simulation results,
// keyed by harness.RunSpec.CacheKey, with an optional LRU size bound. It is safe
// for concurrent use and keeps hit/miss/eviction/corruption counters for
// the service's /metrics endpoint.
type Cache struct {
	mu        sync.Mutex
	max       int   // entry bound (0: unbounded)
	maxBytes  int64 // byte bound over encoded entry sizes (0: unbounded)
	bytes     int64 // current total encoded size
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	// evictedBytes sums the encoded sizes of evicted entries (both
	// bounds), for capacity planning via /metrics.
	evictedBytes uint64

	// corrupt counts entries dropped by checksum verification on load;
	// quarantined counts whole files renamed aside as unparseable.
	corrupt     uint64
	quarantined uint64

	// inj injects I/O faults into Save/load paths (nil in production).
	inj *faults.Injector
}

// lruEntry is one cached result with its key (for map removal on evict)
// and its encoded size (for the byte bound).
type lruEntry struct {
	key  string
	res  core.Result
	size int64
}

// entrySize is an entry's accounted size: key plus the canonical compact
// JSON encoding of the result — the same bytes the persisted file stores,
// so the byte bound tracks what the cache actually costs on disk.
func entrySize(key string, r core.Result) int64 {
	raw, err := json.Marshal(r)
	if err != nil {
		return int64(len(key))
	}
	return int64(len(key) + len(raw))
}

// register declares the cache's /metrics view on r; the values live
// under the cache's own lock and are sampled at scrape time.
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
	gau("sdo_cache_max_entries", "Configured result-cache bound (0: unbounded).",
		func() float64 { return float64(c.MaxEntries()) })
	gau("sdo_cache_bytes", "Total encoded size of cached results.",
		func() float64 { return float64(c.Bytes()) })
	gau("sdo_cache_max_bytes", "Configured result-cache byte bound (0: unbounded).",
		func() float64 { return float64(c.MaxBytes()) })
	ctr("sdo_cache_evicted_bytes_total", "Encoded bytes evicted by the cache bounds.",
		func() float64 { return float64(c.EvictedBytes()) })
	ctr("sdo_cache_corrupt_entries_total", "Persisted entries dropped by checksum verification.",
		func() float64 { return float64(c.CorruptEntries()) })
	ctr("sdo_cache_quarantined_files_total", "Unparseable cache files quarantined (renamed aside).",
		func() float64 { return float64(c.QuarantinedFiles()) })
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*list.Element), order: list.New()}
}

// SetFaults attaches a fault injector to the cache's I/O paths (chaos
// testing; nil disables injection).
func (c *Cache) SetFaults(inj *faults.Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inj = inj
}

// SetMaxEntries bounds the cache to n results, evicting
// least-recently-used entries immediately if it is already over; n <= 0
// removes the bound.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.max = n
	c.evictOver()
}

// MaxEntries returns the current bound (0: unbounded).
func (c *Cache) MaxEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// SetMaxBytes bounds the cache's total encoded size to n bytes, evicting
// least-recently-used entries immediately if it is already over; n <= 0
// removes the bound. The bound is over entry payloads (keys + canonical
// result encodings), i.e. what the persisted file stores, excluding the
// file's framing.
func (c *Cache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.maxBytes = n
	c.evictOver()
}

// MaxBytes returns the current byte bound (0: unbounded).
func (c *Cache) MaxBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes
}

// Bytes returns the total accounted size of the cached entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// EvictedBytes returns the cumulative accounted size of evicted entries.
func (c *Cache) EvictedBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictedBytes
}

// evictOver drops LRU entries until both bounds are met. Caller holds mu.
func (c *Cache) evictOver() {
	over := func() bool {
		return (c.max > 0 && len(c.entries) > c.max) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)
	}
	for over() {
		back := c.order.Back()
		if back == nil {
			return
		}
		e := back.Value.(*lruEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictedBytes += uint64(e.size)
		c.evictions++
	}
}

// Get looks up a result, counting the access as a hit or a miss and
// refreshing the entry's recency.
func (c *Cache) Get(key string) (core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return core.Result{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// Contains reports whether key is cached, without touching the hit/miss
// counters or the LRU order — the steal registry peeks at the cache to
// skip already-answered cells, and a peek is not a demand lookup.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// PeekEncoded returns the wire form of a cached entry — key, integrity
// checksum, canonical compact result encoding — without touching the
// hit/miss counters or the LRU order. This is what GET /cache/{key}
// serves to peer nodes: a peer's lookup is not a demand access of this
// node's cache, so it must not skew the local hit-rate metrics.
func (c *Cache) PeekEncoded(key string) (cacheEntry, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	var res core.Result
	if ok {
		res = el.Value.(*lruEntry).res
	}
	c.mu.Unlock()
	if !ok {
		return cacheEntry{}, false
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return cacheEntry{}, false
	}
	return cacheEntry{Key: key, Sum: entrySum(key, raw), Result: raw}, true
}

// Put stores a completed result as the most recently used entry, evicting
// the least recently used one if the bound is exceeded.
func (c *Cache) Put(key string, r core.Result) {
	size := entrySize(key, r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += size - e.size
		e.res, e.size = r, size
		c.order.MoveToFront(el)
		c.evictOver()
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, res: r, size: size})
	c.bytes += size
	c.evictOver()
}

// Len returns the number of cached results.
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

// CorruptEntries returns how many persisted entries failed checksum
// verification and were dropped on load.
func (c *Cache) CorruptEntries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupt
}

// QuarantinedFiles returns how many unparseable cache files the loader
// renamed aside (0 or 1 per load).
func (c *Cache) QuarantinedFiles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// cacheFile is the persisted form. Entries are a sorted list (not a map)
// so the file is byte-stable across saves of the same contents.
type cacheFile struct {
	Version int          `json:"version"`
	Entries []cacheEntry `json:"entries"`
}

type cacheEntry struct {
	Key string `json:"key"`
	// Sum is entrySum over (Key, canonical Result encoding); verified on
	// load so a bit-flipped or hand-edited entry becomes a miss, not a
	// wrong answer.
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// verify is the one integrity rule for an entry, whether it was loaded
// from the persisted file or received from a peer: re-compact the result
// (the raw bytes may carry a file's indentation, while the checksum is
// over the canonical compact encoding), recompute the sum, then decode.
// It returns the result and the entry's accounted size (see entrySize).
func (e cacheEntry) verify() (core.Result, int64, error) {
	var r core.Result
	var compact bytes.Buffer
	if err := json.Compact(&compact, e.Result); err != nil {
		return r, 0, fmt.Errorf("simsvc: cache entry result: %w", err)
	}
	if entrySum(e.Key, compact.Bytes()) != e.Sum {
		return r, 0, errors.New("simsvc: cache entry checksum mismatch")
	}
	if err := json.Unmarshal(e.Result, &r); err != nil {
		return r, 0, fmt.Errorf("simsvc: cache entry result: %w", err)
	}
	return r, int64(len(e.Key) + compact.Len()), nil
}

// entrySum is the per-entry integrity checksum: sha256 over the key and
// the compact (canonical) JSON encoding of the result, truncated for
// file compactness — this is corruption detection, not cryptography.
func entrySum(key string, compactResult []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{'|'})
	h.Write(compactResult)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Save writes the cache atomically (atomicWrite) to path, with a
// per-entry checksum. A crash mid-save leaves the previous file intact.
func (c *Cache) Save(path string) error {
	c.mu.Lock()
	inj := c.inj
	type kv struct {
		key string
		res core.Result
	}
	snap := make([]kv, 0, len(c.entries))
	for k, el := range c.entries {
		snap = append(snap, kv{k, el.Value.(*lruEntry).res})
	}
	c.mu.Unlock()
	if err := inj.SaveErr(); err != nil {
		return fmt.Errorf("simsvc: save cache: %w", err)
	}

	f := cacheFile{Version: cacheFileVersion}
	for _, e := range snap {
		raw, err := json.Marshal(e.res)
		if err != nil {
			return fmt.Errorf("simsvc: encode cache: %w", err)
		}
		f.Entries = append(f.Entries, cacheEntry{Key: e.key, Sum: entrySum(e.key, raw), Result: raw})
	}
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Key < f.Entries[j].Key })

	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("simsvc: encode cache: %w", err)
	}
	if err := atomicWrite(path, data); err != nil {
		return fmt.Errorf("simsvc: save cache: %w", err)
	}
	return nil
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

// LoadCache reads a persisted cache. A missing file yields an empty
// cache; a version mismatch discards the contents (the counters would be
// meaningless under a different schema); an unparseable (truncated,
// mangled) file is quarantined — renamed to path+CorruptSuffix — and
// treated as empty; individual entries whose checksum does not match are
// dropped. Only real I/O failures return an error.
func LoadCache(path string) (*Cache, error) {
	return loadCache(path, nil)
}

func loadCache(path string, inj *faults.Injector) (*Cache, error) {
	c := NewCache()
	c.inj = inj
	if err := inj.LoadErr(); err != nil {
		return nil, fmt.Errorf("simsvc: load cache %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("simsvc: load cache: %w", err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		// The file is not valid JSON: quarantine it for forensics and
		// start empty. A failed rename only means we could not move it;
		// the cache still starts empty either way.
		c.quarantined++
		os.Rename(path, path+CorruptSuffix)
		return c, nil
	}
	if f.Version != cacheFileVersion {
		return c, nil
	}
	for _, e := range f.Entries {
		if _, ok := c.entries[e.Key]; ok {
			continue
		}
		r, size, err := e.verify()
		if err != nil {
			c.corrupt++
			continue
		}
		c.entries[e.Key] = c.order.PushFront(&lruEntry{key: e.Key, res: r, size: size})
		c.bytes += size
	}
	return c, nil
}
