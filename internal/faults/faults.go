// Package faults is a deterministic, seedable fault injector for chaos
// testing the sweep harness and the simulation service. It can inject
// panics into cell execution, artificial cell slowness, a mid-run freeze
// (the committed-instruction stream stops advancing, which is what the
// harness's stall watchdog kills), cache read/write I/O errors, and
// disk-full failures on cache persists.
//
// Two design rules:
//
//   - Determinism without coordination. Every decision is a pure function
//     of (seed, site, key, attempt) — a hash draw, not a shared PRNG
//     stream — so the same seed injects the same faults into the same
//     cells regardless of worker count or scheduling order. A cell that
//     draws a panic on attempt 0 usually draws clean on attempt 1, which
//     is exactly the "transient fault" shape retry logic exists for.
//
//   - Zero cost when disabled. Every method is nil-receiver safe: a nil
//     *Injector answers "no fault" after a single nil check, so
//     production call sites pay one pointer compare and no allocation.
//
// Activation for chaos CI is a spec string (flag or the SDO_FAULTS
// environment variable), e.g.:
//
//	SDO_FAULTS="seed=11,panic=0.3,slow=0.3,slow-delay=10ms,disk-full=1"
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable FromEnv reads the fault spec from.
const EnvVar = "SDO_FAULTS"

// ErrInjected marks every error produced by the injector, so callers can
// distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// ErrDiskFull is the injected persist failure (ENOSPC-shaped). It wraps
// ErrInjected.
var ErrDiskFull = fmt.Errorf("%w: disk full on persist", ErrInjected)

// Panic is the value thrown by injected panics; recover sites can
// type-assert it to recognize chaos-injected crashes.
type Panic struct {
	Key     string
	Attempt int
}

func (p Panic) String() string {
	return fmt.Sprintf("faults: injected panic (key=%s attempt=%d)", p.Key, p.Attempt)
}

// Config selects what to inject. All probabilities are in [0, 1] and are
// drawn independently per (key, attempt) — see the package comment.
type Config struct {
	// Seed makes every draw reproducible.
	Seed uint64
	// PanicProb injects a panic at the start of a cell attempt.
	PanicProb float64
	// PanicKey, when non-empty, makes every attempt of every cell whose
	// key contains this substring panic — a permanent failure, for
	// exercising retry exhaustion and degraded sweeps.
	PanicKey string
	// SlowProb/SlowDelay delay a cell attempt by SlowDelay before it
	// starts simulating (artificial cell slowness; with a per-cell
	// deadline configured this produces timeouts).
	SlowProb  float64
	SlowDelay time.Duration
	// FreezeProb/FreezeFor freeze a cell mid-run for FreezeFor: the
	// committed-instruction stream stops advancing while wall time
	// passes, which is the failure shape the harness's progress-based
	// stall watchdog detects.
	FreezeProb float64
	FreezeFor  time.Duration
	// CacheReadErrProb fails cache loads; CacheWriteErrProb fails cache
	// saves. Drawn per operation (sequence-numbered).
	CacheReadErrProb  float64
	CacheWriteErrProb float64
	// DiskFullPersists fails the first N cache persists with ErrDiskFull.
	DiskFullPersists int
	// PeerErrProb fails peer cache lookups outright (connection-level
	// failure); PeerSlowProb/PeerSlowDelay delay a peer response (exercises
	// hedging and timeouts); PeerCorruptProb corrupts a peer response body
	// (exercises checksum validation). Drawn per (peer, key) pair.
	PeerErrProb     float64
	PeerSlowProb    float64
	PeerSlowDelay   time.Duration
	PeerCorruptProb float64
}

// Stats counts injected faults by kind.
type Stats struct {
	Panics, Slows, Freezes        uint64
	CacheReadErrs, CacheWriteErrs uint64
	DiskFulls                     uint64
	PeerErrs, PeerSlows           uint64
	PeerCorrupts                  uint64
}

// Total sums every injected-fault counter.
func (s Stats) Total() uint64 {
	return s.Panics + s.Slows + s.Freezes + s.CacheReadErrs + s.CacheWriteErrs +
		s.DiskFulls + s.PeerErrs + s.PeerSlows + s.PeerCorrupts
}

// Injector injects the configured faults. A nil *Injector is valid and
// injects nothing.
type Injector struct {
	cfg Config

	panics, slows, freezes atomic.Uint64
	readErrs, writeErrs    atomic.Uint64
	diskFulls              atomic.Uint64
	readSeq, writeSeq      atomic.Uint64
	persistSeq             atomic.Uint64
	peerErrs, peerSlows    atomic.Uint64
	peerCorrupts           atomic.Uint64
}

// New builds an injector for cfg.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Enabled reports whether any injection can happen.
func (f *Injector) Enabled() bool { return f != nil }

// Config returns the injector's configuration (zero value on nil).
func (f *Injector) Config() Config {
	if f == nil {
		return Config{}
	}
	return f.cfg
}

// Stats snapshots the injected-fault counters.
func (f *Injector) Stats() Stats {
	if f == nil {
		return Stats{}
	}
	return Stats{
		Panics:         f.panics.Load(),
		Slows:          f.slows.Load(),
		Freezes:        f.freezes.Load(),
		CacheReadErrs:  f.readErrs.Load(),
		CacheWriteErrs: f.writeErrs.Load(),
		DiskFulls:      f.diskFulls.Load(),
		PeerErrs:       f.peerErrs.Load(),
		PeerSlows:      f.peerSlows.Load(),
		PeerCorrupts:   f.peerCorrupts.Load(),
	}
}

// draw returns a deterministic uniform value in [0, 1) for (site, key,
// attempt) under the injector's seed.
func (f *Injector) draw(site, key string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", f.cfg.Seed, site, key, attempt)
	// FNV-1a diffuses trailing bytes (the attempt number) weakly into the
	// high bits, so finish with a murmur3-style avalanche before taking
	// the top 53 bits → exactly representable float64 in [0, 1).
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// WouldPanic reports whether PanicNow would panic for (key, attempt),
// without side effects — for tests that need to pick seeds.
func (f *Injector) WouldPanic(key string, attempt int) bool {
	if f == nil {
		return false
	}
	if f.cfg.PanicKey != "" && strings.Contains(key, f.cfg.PanicKey) {
		return true
	}
	return f.cfg.PanicProb > 0 && f.draw("panic", key, attempt) < f.cfg.PanicProb
}

// PanicNow panics with a Panic value if the draw for (key, attempt) says
// so. Call inside a recover scope.
func (f *Injector) PanicNow(key string, attempt int) {
	if f.WouldPanic(key, attempt) {
		f.panics.Add(1)
		panic(Panic{Key: key, Attempt: attempt})
	}
}

// WouldSlow reports whether Delay would return a non-zero delay.
func (f *Injector) WouldSlow(key string, attempt int) bool {
	return f != nil && f.cfg.SlowProb > 0 && f.cfg.SlowDelay > 0 &&
		f.draw("slow", key, attempt) < f.cfg.SlowProb
}

// Delay returns the artificial start-of-attempt delay for (key, attempt),
// or 0.
func (f *Injector) Delay(key string, attempt int) time.Duration {
	if !f.WouldSlow(key, attempt) {
		return 0
	}
	f.slows.Add(1)
	return f.cfg.SlowDelay
}

// Freeze returns how long (key, attempt) should freeze mid-run, or 0.
// The caller sleeps for the returned duration at its next progress-check
// point while the simulated instruction stream stays put.
func (f *Injector) Freeze(key string, attempt int) time.Duration {
	if f == nil || f.cfg.FreezeProb <= 0 || f.cfg.FreezeFor <= 0 ||
		f.draw("freeze", key, attempt) >= f.cfg.FreezeProb {
		return 0
	}
	f.freezes.Add(1)
	return f.cfg.FreezeFor
}

// LoadErr returns an injected cache-read error, or nil. Each call is a
// fresh sequence-numbered draw.
func (f *Injector) LoadErr() error {
	if f == nil || f.cfg.CacheReadErrProb <= 0 {
		return nil
	}
	seq := f.readSeq.Add(1)
	if f.draw("cache-read", "", int(seq)) >= f.cfg.CacheReadErrProb {
		return nil
	}
	f.readErrs.Add(1)
	return fmt.Errorf("%w: cache read I/O error (op %d)", ErrInjected, seq)
}

// SaveErr returns an injected cache-write error, or nil. The first
// Config.DiskFullPersists calls fail with ErrDiskFull; after that,
// CacheWriteErrProb draws apply.
func (f *Injector) SaveErr() error {
	if f == nil {
		return nil
	}
	seq := f.persistSeq.Add(1)
	if int(seq) <= f.cfg.DiskFullPersists {
		f.diskFulls.Add(1)
		return ErrDiskFull
	}
	if f.cfg.CacheWriteErrProb > 0 {
		wseq := f.writeSeq.Add(1)
		if f.draw("cache-write", "", int(wseq)) < f.cfg.CacheWriteErrProb {
			f.writeErrs.Add(1)
			return fmt.Errorf("%w: cache write I/O error (op %d)", ErrInjected, wseq)
		}
	}
	return nil
}

// PeerErr returns an injected peer-lookup failure for (peer, key), or nil.
func (f *Injector) PeerErr(peer, key string) error {
	if f == nil || f.cfg.PeerErrProb <= 0 ||
		f.draw("peer-err", peer+"|"+key, 0) >= f.cfg.PeerErrProb {
		return nil
	}
	f.peerErrs.Add(1)
	return fmt.Errorf("%w: peer lookup failure (peer=%s)", ErrInjected, peer)
}

// PeerDelay returns the artificial peer-response delay for (peer, key),
// or 0.
func (f *Injector) PeerDelay(peer, key string) time.Duration {
	if f == nil || f.cfg.PeerSlowProb <= 0 || f.cfg.PeerSlowDelay <= 0 ||
		f.draw("peer-slow", peer+"|"+key, 0) >= f.cfg.PeerSlowProb {
		return 0
	}
	f.peerSlows.Add(1)
	return f.cfg.PeerSlowDelay
}

// PeerCorrupt reports whether the peer response body for (peer, key)
// should be corrupted before validation.
func (f *Injector) PeerCorrupt(peer, key string) bool {
	if f == nil || f.cfg.PeerCorruptProb <= 0 ||
		f.draw("peer-corrupt", peer+"|"+key, 0) >= f.cfg.PeerCorruptProb {
		return false
	}
	f.peerCorrupts.Add(1)
	return true
}

// Parse builds an injector from a comma-separated spec, e.g.
//
//	seed=11,panic=0.3,panic-key=mcf_r,slow=0.5,slow-delay=10ms,
//	freeze=0.2,freeze-for=300ms,cache-read=0.1,cache-write=0.1,disk-full=2
//
// An empty spec returns (nil, nil): injection disabled.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var cfg Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "panic":
			cfg.PanicProb, err = parseProb(v)
		case "panic-key":
			cfg.PanicKey = v
		case "slow":
			cfg.SlowProb, err = parseProb(v)
		case "slow-delay":
			cfg.SlowDelay, err = time.ParseDuration(v)
		case "freeze":
			cfg.FreezeProb, err = parseProb(v)
		case "freeze-for":
			cfg.FreezeFor, err = time.ParseDuration(v)
		case "cache-read":
			cfg.CacheReadErrProb, err = parseProb(v)
		case "cache-write":
			cfg.CacheWriteErrProb, err = parseProb(v)
		case "disk-full":
			cfg.DiskFullPersists, err = strconv.Atoi(v)
		case "peer-err":
			cfg.PeerErrProb, err = parseProb(v)
		case "peer-slow":
			cfg.PeerSlowProb, err = parseProb(v)
		case "peer-slow-delay":
			cfg.PeerSlowDelay, err = time.ParseDuration(v)
		case "peer-corrupt":
			cfg.PeerCorruptProb, err = parseProb(v)
		default:
			return nil, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value for %q: %v", k, err)
		}
	}
	if cfg.SlowProb > 0 && cfg.SlowDelay == 0 {
		cfg.SlowDelay = 10 * time.Millisecond
	}
	if cfg.FreezeProb > 0 && cfg.FreezeFor == 0 {
		cfg.FreezeFor = 100 * time.Millisecond
	}
	if cfg.PeerSlowProb > 0 && cfg.PeerSlowDelay == 0 {
		cfg.PeerSlowDelay = 10 * time.Millisecond
	}
	return New(cfg), nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}

// FromEnv builds an injector from the SDO_FAULTS environment variable via
// lookup (so tests can stub the lookup). Returns (nil, nil) when unset.
func FromEnv(lookup func(string) (string, bool)) (*Injector, error) {
	spec, ok := lookup(EnvVar)
	if !ok {
		return nil, nil
	}
	return Parse(spec)
}
