package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func spec(wl string, v core.Variant, m pipeline.AttackModel) harness.RunSpec {
	return harness.RunSpec{Workload: wl, Variant: v, Model: m, WarmupInstrs: 1000, MaxInstrs: 2000}
}

func TestCacheKeyStableAndDistinct(t *testing.T) {
	a := spec("mcf_r", core.Hybrid, pipeline.Spectre)
	k1, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := a.CacheKey()
	if k1 != k2 {
		t.Fatalf("key not stable: %s vs %s", k1, k2)
	}
	// Every dimension of the spec must change the key.
	variants := []harness.RunSpec{
		spec("gcc_r", core.Hybrid, pipeline.Spectre),
		spec("mcf_r", core.StaticL1, pipeline.Spectre),
		spec("mcf_r", core.Hybrid, pipeline.Futuristic),
		{Workload: "mcf_r", Variant: core.Hybrid, Model: pipeline.Spectre, WarmupInstrs: 999, MaxInstrs: 2000},
		{Workload: "mcf_r", Variant: core.Hybrid, Model: pipeline.Spectre, WarmupInstrs: 1000, MaxInstrs: 2001},
		{Workload: "mcf_r", Variant: core.Hybrid, Model: pipeline.Spectre, WarmupInstrs: 1000, MaxInstrs: 2000,
			Ablate: core.Ablation{AlwaysValidate: true}},
	}
	seen := map[string]bool{k1: true}
	for _, s := range variants {
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatalf("key collision for %+v", s)
		}
		seen[k] = true
	}
}

func TestCacheKeyUnknownWorkload(t *testing.T) {
	if _, err := spec("nope_r", core.Unsafe, pipeline.Spectre).CacheKey(); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

// testKey is the i-th made-up cache key, in the shape RunSpec.CacheKey
// gives every real one (64 lowercase hex digits), so it names a file.
func testKey(i int) string { return fmt.Sprintf("%064x", i) }

// diskCache opens a cache over dir with no event sink.
func diskCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := openCache(dir, func(string, string) {})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// entryFile reads key's entry file in dir.
func entryFile(t *testing.T, dir, key string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheSaveLoadRoundTrip: every Put writes its entry file, and a
// second cache — and a second Service — over the same directory reads the
// results back exactly, as hits, with nothing decoded up front. Each
// file's bytes are the entry's one-key lookup answer.
func TestCacheSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := diskCache(t, dir)
	r := core.Result{Variant: core.Hybrid, Model: pipeline.Futuristic}
	r.Cycles = 12345
	r.Committed = 6789
	r.Squashes[0] = 42
	r.L1DHits = 99
	c.Put(testKey(1), r)
	c.Put(testKey(2), core.Result{})

	c2 := diskCache(t, dir)
	if c2.Len() != 0 {
		t.Fatalf("a fresh cache holds %d entries before any lookup, want 0", c2.Len())
	}
	got, ok := c2.Get(testKey(1))
	if !ok || !reflect.DeepEqual(*got, r) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	if _, ok := c2.Get(testKey(2)); !ok {
		t.Fatal("second entry lost")
	}
	if h, m := c2.Stats(); h != 2 || m != 0 || c2.Len() != 2 {
		t.Fatalf("read-through: hits=%d misses=%d len=%d, want 2/0/2", h, m, c2.Len())
	}

	s := newService(t, Config{Workers: 1, CachePath: dir})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	for _, key := range []string{testKey(1), testKey(2)} {
		file := entryFile(t, dir, key)
		if body := entryBody(t, ts.URL, key); !bytes.Equal(body, file) {
			t.Errorf("%s: lookup answer differs from the entry file:\n%s\nvs\n%s", key, body, file)
		}
		if wire, _ := c.PeekEncoded(key); !bytes.Equal(wire, file) {
			t.Errorf("%s: the writer's stored bytes differ from its file", key)
		}
	}
}

// TestEntryFileIsTheEncodersBytes: an entry file holds the bytes
// json.Encoder with a two-space indent wrote before harness.IndentedJSON
// replaced it, so a cache directory or a peer of either build reads the
// other's entries.
func TestEntryFileIsTheEncodersBytes(t *testing.T) {
	r := core.Result{Variant: core.Hybrid, Model: pipeline.Futuristic, IntervalCycles: 500,
		Intervals: []core.IntervalPoint{{Cycle: 500, Cycles: 500, IPC: 1.25, SquashPKI: 1e-7}}, ROBOccHist: []uint64{0, 3}}
	r.Cycles, r.Committed, r.Squashes[2] = 12345, 6789, 7
	raw, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	sum := entrySum(testKey(1), raw)
	if err := enc.Encode(cacheEntry{Key: testKey(1), Sum: string(sum[:]), Result: raw}); err != nil {
		t.Fatal(err)
	}
	if got := newEntry(testKey(1), r).wire; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("entry file:\n%s\nwant json.Encoder's\n%s", got, want.Bytes())
	}
}

// TestCacheLoadMissingAndStale: a missing entry file is a plain miss, a
// missing cache directory is created, and a path holding a single-file
// cache from an older version is refused rather than read or replaced.
func TestCacheLoadMissingAndStale(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "cache")
	c := diskCache(t, dir)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("cache directory not created: %v", err)
	}
	if _, ok := c.Get(testKey(1)); ok || c.corruptTotal() != 0 {
		t.Fatalf("missing entry: hit=%v corrupt=%d, want a plain miss", ok, c.corruptTotal())
	}

	stale := filepath.Join(t.TempDir(), "sdo-cache.json")
	old := []byte(`{"version": 3, "entries": [{"key":"x","sum":"","result":{}}]}`)
	if err := os.WriteFile(stale, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Workers: 1, CachePath: stale})
	if err == nil || !strings.Contains(err.Error(), "move it aside") {
		t.Fatalf("New over a single-file cache: err = %v, want a move-it-aside error", err)
	}
	if b, _ := os.ReadFile(stale); !bytes.Equal(b, old) {
		t.Error("the old cache file was changed")
	}
}

// TestMemoryOnlyCacheOpensNoFile: with no cache directory, a sweep
// writes nothing — not even relative to the working directory — and the
// cache reports persistence off.
func TestMemoryOnlyCacheOpensNoFile(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	s := newService(t, Config{Workers: 2})
	submitAndWait(t, s, smallReq())
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Errorf("a memory-only service left %d file(s) in its working directory", len(ents))
	}
	if got := metric(t, s, "sdo_cache_persistence_enabled"); got != 0 {
		t.Errorf("sdo_cache_persistence_enabled = %v, want 0", got)
	}
}

// cacheMetric reads one of c's /metrics families as a service scrape
// would.
func cacheMetric(t *testing.T, c *Cache, name string) float64 {
	t.Helper()
	r := obs.NewRegistry()
	c.register(r)
	v, ok := r.Value(name)
	if !ok {
		t.Fatalf("cache metric %s is not registered", name)
	}
	return v
}

func TestCacheByteBound(t *testing.T) {
	c := NewCache()
	one := newEntry("key-00", core.Result{L1DHits: 1}).size()
	// Room for three entries, not four.
	bound := 3*one + one/2
	c.SetMaxBytes(bound)
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("key-%02d", i), core.Result{L1DHits: uint64(i + 1)})
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}
	if c.heldBytes() > bound {
		t.Fatalf("bytes %d over bound %d", c.heldBytes(), bound)
	}
	for name, want := range map[string]float64{
		"sdo_cache_entries":             3,
		"sdo_cache_bytes":               float64(3 * one),
		"sdo_cache_evictions_total":     3,
		"sdo_cache_evicted_bytes_total": float64(3 * one),
	} {
		if got := cacheMetric(t, c, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Oldest-first: the three most recent keys survive.
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%02d", i)); ok {
			t.Errorf("old key-%02d survived the byte bound", i)
		}
	}
	for i := 3; i < 6; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%02d", i)); !ok {
			t.Errorf("recent key-%02d evicted", i)
		}
	}
	if got := c.evictedTotal(); got != uint64(3*one) {
		t.Errorf("evicted %d bytes, want %d", got, 3*one)
	}
	if c.Evictions() != 3 {
		t.Errorf("evictions %d, want 3", c.Evictions())
	}

	// Putting a key already present keeps its entry: the same copy, the
	// same accounted bytes.
	before := c.heldBytes()
	kept, _ := c.Get("key-05")
	if got := c.Put("key-05", core.Result{L1DHits: 6}); got != kept || c.heldBytes() != before {
		t.Errorf("re-Put: copy %p (kept %p), bytes %d -> %d", got, kept, before, c.heldBytes())
	}

	// The bound is over memory only: over a cache directory an evicted
	// entry comes back from its file, as a hit, with the same accounting.
	one = newEntry(testKey(0), core.Result{L1DHits: 1}).size()
	d := diskCache(t, t.TempDir())
	d.SetMaxBytes(3*one + one/2)
	for i := 0; i < 4; i++ {
		d.Put(testKey(i), core.Result{L1DHits: uint64(i + 1)})
	}
	if d.Len() != 3 || d.Evictions() != 1 {
		t.Fatalf("bounded disk cache: len %d, evictions %d, want 3/1", d.Len(), d.Evictions())
	}
	if r, ok := d.Get(testKey(0)); !ok || r.L1DHits != 1 {
		t.Fatalf("evicted entry not read back from disk: %+v ok=%v", r, ok)
	}
	if h, m := d.Stats(); h != 1 || m != 0 || d.Len() != 3 || d.heldBytes() != 3*one {
		t.Errorf("after read-back: hits=%d misses=%d len=%d bytes=%d, want 1/0/3/%d", h, m, d.Len(), d.heldBytes(), 3*one)
	}
}

// TestDecodeEntryKeepsTheVerifiedBytes: an entry's bytes decode to the
// result they were made from and become its wire form as they are —
// never re-encoded — while every truncation and every flipped byte is
// refused.
func TestDecodeEntryKeepsTheVerifiedBytes(t *testing.T) {
	key := testKey(3)
	r := core.Result{Variant: core.Hybrid, Model: pipeline.Futuristic}
	r.Cycles, r.Committed = 12345, 6789
	wire := newEntry(key, r).wire
	e, err := decodeEntry(key, wire)
	if err != nil || !reflect.DeepEqual(*e.res, r) {
		t.Fatalf("decodeEntry = %+v, %v; want %+v", e, err, r)
	}
	if &e.wire[0] != &wire[0] || len(e.wire) != len(wire) {
		t.Error("the entry's wire form is not the bytes it was decoded from")
	}
	for n := 0; n < len(wire); n++ {
		if _, err := decodeEntry(key, wire[:n]); err == nil {
			t.Fatalf("a %d-byte truncation of a %d-byte entry was accepted", n, len(wire))
		}
	}
	for i := range wire {
		flipped := bytes.Clone(wire)
		flipped[i] ^= 0xff
		if _, err := decodeEntry(key, flipped); err == nil {
			t.Fatalf("byte %d (%q) flipped was accepted", i, wire[i])
		}
	}
	if _, err := decodeEntry(testKey(4), wire); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Errorf("an entry for another key: err = %v, want a key mismatch", err)
	}
}
