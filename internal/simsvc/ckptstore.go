package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faults"
)

// ckptDirSuffix names the checkpoint directory next to the result cache:
// CachePath + ckptDirSuffix.
const ckptDirSuffix = ".ckpts"

// ckptStore persists the artifact tiers' payloads — functional-warmup
// checkpoints and sampling plans (gob, one <hash>.ckpt / <hash>.plan file
// per artifact key) — alongside the result cache, so a restarted server
// restores warm state and skips BBV re-profiling instead of redoing
// either. Files are content-addressed by the hash of the artifact key —
// the same key the in-memory tier uses, so a schema bump or a kernel edit
// changes the file name and stale artifacts are simply never read again.
//
// The store is strictly best-effort: any failure to write or read is
// reported to the caller's metrics/events and the service falls back to
// building in-process, exactly as if the file did not exist.
type ckptStore struct {
	dir string // "" disables the store
	inj *faults.Injector
}

func newCkptStore(cachePath string, inj *faults.Injector) *ckptStore {
	st := &ckptStore{inj: inj}
	if cachePath != "" {
		st.dir = cachePath + ckptDirSuffix
	}
	return st
}

func (st *ckptStore) enabled() bool { return st.dir != "" }

// artifactName maps an artifact key to its content-addressed file base
// name. Keys carry workload names and schema strings; hashing keeps the
// name short, safe and stable — and URL-safe, so the same name addresses
// the artifact in the cluster's GET /artifacts/{kind}/{hash} endpoints.
func artifactName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// open opens a stored artifact's gob file by kind ("ckpt" or "plan") and
// file base name — for the local disk rung and for serving to cluster
// peers alike; the caller closes it. The hash is vetted as lowercase hex
// so a hostile path segment can never escape the store directory.
func (st *ckptStore) open(kind, hash string) (*os.File, bool) {
	if !st.enabled() || st.inj.LoadErr() != nil {
		return nil, false
	}
	if len(hash) != 32 {
		return nil, false
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return nil, false
	}
	if kind != "ckpt" && kind != "plan" {
		return nil, false
	}
	f, err := os.Open(filepath.Join(st.dir, hash+"."+kind))
	return f, err == nil
}

// write stores an artifact's gob encoding atomically, so a crash
// mid-write leaves either no file or the previous one.
func (st *ckptStore) write(kind, hash string, encode func(io.Writer) error) error {
	if err := st.inj.SaveErr(); err != nil {
		return err
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(st.dir, hash+"."+kind), encode)
}

// atomicWrite replaces path with what write produces, via a temp file in
// the same directory plus rename: readers (and a crash) see the old
// contents or the new, never a torn file.
func atomicWrite(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
