package simsvc

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/simpoint"
	"repro/internal/workload"
)

// The artifact tiers. The expensive per-workload artifacts — functional-
// warmup checkpoints and SimPoint sampling plans — are content-addressed
// exactly like results, and both resolve through one ladder
// (artifactTier.resolve): memory, else the on-disk store (a restarted
// server restores instead of re-simulating), else a cluster peer
// (Config.PeerArtifacts), else built fresh — under singleflight, so
// concurrent cells for the same key block until the one load/build
// finishes. Whatever a peer or a build produced is persisted best-effort
// for the next restart (and for this node's own peers).
//
// The on-disk store names each file by artifactName(key), a hash of the
// same key the in-memory tier uses; a node serves its store over GET
// /artifacts/{ckpt,plan}/{hash} and consults the fabric (same rendezvous
// ranking, breakers and hedging as result lookups) before capturing or
// profiling from scratch. So a stolen or resumed cell never re-warms or
// re-profiles what any cluster peer already has.
//
// The wire format mirrors the result entries' integrity rule: an
// envelope carrying the hash, a checksum over (hash, gob bytes), and
// the gob payload. The receiver re-verifies the checksum, then decodes
// through the same artifactCodec a disk load uses, which validates the
// artifact's build inputs (warmup budget, window, sampling config) — a
// corrupt or stale artifact, from disk or from a peer, degrades to the
// next rung, never a wrong simulation.

// artifactCodec is one artifact kind's serialized (gob) form, bound to
// the build inputs of the artifact being resolved: decode rejects a
// stale or colliding payload — one built from different inputs — as well
// as an undecodable one.
type artifactCodec[T any] struct {
	encode func(io.Writer, T) error
	decode func(io.Reader) (T, error)
}

// ckptCodec is the checkpoint codec for a warmup budget.
func ckptCodec(warmup uint64) artifactCodec[*arch.Checkpoint] {
	return artifactCodec[*arch.Checkpoint]{
		encode: func(w io.Writer, ck *arch.Checkpoint) error { return ck.Encode(w) },
		decode: func(r io.Reader) (*arch.Checkpoint, error) {
			ck, err := arch.Decode(r)
			if err == nil && ck.WarmupInstrs != warmup {
				err = fmt.Errorf("simsvc: checkpoint warmed %d instrs, want %d", ck.WarmupInstrs, warmup)
			}
			return ck, err
		},
	}
}

// planFile is the serialized (gob) form of one sampling plan: the
// clustering and the inputs it was built from — validated on decode so a
// stale or colliding payload is rebuilt rather than trusted. It does not
// carry the representatives' checkpoints: re-capturing them from the
// plan's boundaries is one deterministic functional pass that costs less
// than decoding their memory images did (DESIGN.md, "Sampled
// simulation"), so a stored plan is ~0.5 kB where it was megabytes.
type planFile struct {
	Warmup, Window uint64
	Cfg            simpoint.Config
	Plan           *simpoint.Plan
}

// planCodec is the sampling-plan codec for one (workload, warmup, window,
// config). Decode ends where a build does, in harness.CaptureSamplePlan,
// and counts the capture pass like one.
func (s *Service) planCodec(wl workload.Workload, warmup, window uint64, cfg simpoint.Config) artifactCodec[*harness.SamplePlan] {
	return artifactCodec[*harness.SamplePlan]{
		encode: func(w io.Writer, sp *harness.SamplePlan) error {
			return gob.NewEncoder(w).Encode(&planFile{Warmup: warmup, Window: window, Cfg: cfg, Plan: sp.Plan})
		},
		decode: func(r io.Reader) (*harness.SamplePlan, error) {
			var pf planFile
			if err := gob.NewDecoder(r).Decode(&pf); err != nil {
				return nil, err
			}
			if pf.Plan == nil || pf.Warmup != warmup || pf.Window != window || pf.Cfg != cfg ||
				pf.Plan.WarmupInstrs != warmup || pf.Plan.WindowInstrs != window {
				return nil, errors.New("simsvc: sample plan built from different inputs")
			}
			sp, err := harness.CaptureSamplePlan(wl, pf.Plan)
			if err == nil {
				s.countCapture(sp)
			}
			return sp, err
		},
	}
}

// artifactTier is the resolve ladder for one artifact kind.
type artifactTier[T any] struct {
	svc   *Service
	kind  string // "ckpt" | "plan": file extension and /artifacts/{kind} segment
	label string // "checkpoint" | "plan": event-kind and error-message prefix

	mu      sync.Mutex
	flights map[string]*artifactFlight[T]

	hits      *obs.Counter // cells that reused a resolved (or resolving) artifact
	diskHits  *obs.Counter // memory misses answered from the on-disk store
	peerHits  *obs.Counter // memory+disk misses answered by a peer (nil unless PeerArtifacts)
	persisted *obs.Counter // artifacts written to the on-disk store
}

// artifactFlight is one tier entry: the first cell to need it resolves
// while later cells block on done; once done it is the memory rung.
type artifactFlight[T any] struct {
	done chan struct{}
	v    T
	err  error
}

// resolve returns the artifact for key, walking the ladder on a memory
// miss. A failed or panicking build is isolated: this caller and any
// blocked on the flight get the error, and the flight is dropped so a
// later cell can retry.
func (t *artifactTier[T]) resolve(parent *trace.Span, key string, c artifactCodec[T], build func() (T, error)) (T, error) {
	t.mu.Lock()
	if f, ok := t.flights[key]; ok {
		t.mu.Unlock()
		<-f.done
		if f.err == nil {
			t.hits.Inc()
		}
		return f.v, f.err
	}
	f := &artifactFlight[T]{done: make(chan struct{})}
	t.flights[key] = f
	t.mu.Unlock()
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("simsvc: %s build for %s panicked: %v", t.label, key, r)
				t.svc.event(t.label+"-panic", fmt.Sprintf("%s: %v", key, r))
			}
			close(f.done)
		}()
		f.v, f.err = t.fill(parent, key, c, build)
	}()
	if f.err != nil {
		t.mu.Lock()
		delete(t.flights, key)
		t.mu.Unlock()
	}
	return f.v, f.err
}

// fill walks the rungs below memory: disk, peer, build.
func (t *artifactTier[T]) fill(parent *trace.Span, key string, c artifactCodec[T], build func() (T, error)) (T, error) {
	s, hash := t.svc, artifactName(key)
	if f, ok := s.ckstore.open(t.kind, hash); ok {
		v, err := c.decode(f)
		f.Close()
		if err == nil {
			t.diskHits.Inc()
			return v, nil
		}
	}
	v, ok := t.fromPeer(parent, key, hash, c)
	if !ok {
		var err error
		if v, err = build(); err != nil {
			return v, err
		}
	}
	if s.ckstore.enabled() {
		err := s.ckstore.write(t.kind, hash, func(w io.Writer) error { return c.encode(w, v) })
		if err != nil {
			s.event(t.label+"-persist-failed", fmt.Sprintf("simsvc: save %s: %v", t.label, err))
		} else {
			t.persisted.Inc()
		}
	}
	return v, nil
}

// fromPeer consults the fabric for the artifact under a ckpt-peer-lookup
// span. Any failure — peering off, no peer holds it, corrupt or stale
// body — is a miss; the caller builds locally.
func (t *artifactTier[T]) fromPeer(parent *trace.Span, key, hash string, c artifactCodec[T]) (T, bool) {
	var v T
	s := t.svc
	if !s.cfg.PeerArtifacts || s.fab == nil {
		return v, false
	}
	sp := parent.Child(trace.PhaseCkptPeer)
	sp.Set("kind", t.kind)
	start := time.Now()
	got, peerURL, ok := s.fab.Lookup(s.ctx, hash, "/artifacts/"+t.kind+"/"+hash, func(body []byte) (_ any, err error) {
		// The fabric calls this on its own goroutines, outside resolve's
		// recover, and a plan decode runs the functional emulator.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("simsvc: peer %s decode panicked: %v", t.label, r)
			}
		}()
		data, err := decodeArtifact(hash, body)
		if err != nil {
			return nil, err
		}
		return c.decode(bytes.NewReader(data))
	})
	s.peerDur.Observe(time.Since(start).Seconds())
	sp.Set("hit", strconv.FormatBool(ok))
	if ok {
		sp.Set("peer", peerURL)
	}
	sp.Finish()
	if !ok {
		return v, false
	}
	t.peerHits.Inc()
	s.event(t.kind+"-peer-hit", fmt.Sprintf("%s from %s", key, peerURL))
	return got.(T), true
}

// artifactEntry is the wire form of one peered artifact.
type artifactEntry struct {
	// Hash is artifactName(key): the content address both sides use.
	Hash string `json:"hash"`
	// Sum is entrySum over (Hash, Data), verified on receipt.
	Sum string `json:"sum"`
	// Data is the raw gob encoding, as stored on disk.
	Data []byte `json:"data"`
}

// decodeArtifact parses and checksums a peer artifact body.
func decodeArtifact(hash string, body []byte) ([]byte, error) {
	var e artifactEntry
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, fmt.Errorf("simsvc: peer artifact: %w", err)
	}
	if e.Hash != hash {
		return nil, fmt.Errorf("simsvc: peer artifact hash mismatch (got %q)", e.Hash)
	}
	if entrySum(hash, e.Data) != e.Sum {
		return nil, fmt.Errorf("simsvc: peer artifact checksum mismatch")
	}
	return e.Data, nil
}

// ArtifactEntry serves one stored artifact ("ckpt" or "plan") in wire
// form, for the /artifacts endpoints. False: not stored here.
func (s *Service) ArtifactEntry(kind, hash string) ([]byte, bool) {
	f, ok := s.ckstore.open(kind, hash)
	if !ok {
		return nil, false
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, false
	}
	body, err := json.Marshal(artifactEntry{Hash: hash, Sum: entrySum(hash, data), Data: data})
	return body, err == nil
}
