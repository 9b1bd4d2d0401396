package simsvc

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
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

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	c := NewCache()
	r := core.Result{Variant: core.Hybrid, Model: pipeline.Futuristic}
	r.Cycles = 12345
	r.Committed = 6789
	r.Squashes[0] = 42
	r.L1DHits = 99
	c.Put("k1", r)
	c.Put("k2", core.Result{})
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}

	c2, err := LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", c2.Len())
	}
	got, ok := c2.Get("k1")
	if !ok || !reflect.DeepEqual(got, r) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, r)
	}

	// Saving identical contents twice must produce identical bytes
	// (sorted entries, no map-order dependence).
	path2 := filepath.Join(dir, "cache2.json")
	if err := c2.Save(path2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatal("cache file not byte-stable across saves")
	}
}

func TestCacheLoadMissingAndStale(t *testing.T) {
	c, err := LoadCache(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || c.Len() != 0 {
		t.Fatalf("missing file: got len=%d err=%v", c.Len(), err)
	}
	stale := filepath.Join(t.TempDir(), "stale.json")
	os.WriteFile(stale, []byte(`{"version": 999, "entries": [{"key":"x","result":{}}]}`), 0o644)
	c, err = LoadCache(stale)
	if err != nil || c.Len() != 0 {
		t.Fatalf("stale version must be discarded: got len=%d err=%v", c.Len(), err)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := NewCache()
	one := entrySize("key-00", core.Result{L1DHits: 1})
	// Room for three entries, not four.
	c.SetMaxBytes(3*one + one/2)
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("key-%02d", i), core.Result{L1DHits: uint64(i + 1)})
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}
	if c.Bytes() > c.MaxBytes() {
		t.Fatalf("bytes %d over bound %d", c.Bytes(), c.MaxBytes())
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
	if got := c.EvictedBytes(); got != uint64(3*one) {
		t.Errorf("evicted %d bytes, want %d", got, 3*one)
	}
	if c.Evictions() != 3 {
		t.Errorf("evictions %d, want 3", c.Evictions())
	}

	// Overwriting an entry re-accounts its size instead of double counting.
	before := c.Bytes()
	c.Put("key-05", core.Result{L1DHits: 6})
	if c.Bytes() != before {
		t.Errorf("overwrite changed accounted bytes: %d -> %d", before, c.Bytes())
	}

	// The byte accounting survives a save/load round trip.
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Bytes() != c.Bytes() {
		t.Errorf("loaded bytes %d, want %d", loaded.Bytes(), c.Bytes())
	}
}
