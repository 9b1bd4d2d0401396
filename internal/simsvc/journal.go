package simsvc

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// The job journal is the durable half of resumable sweeps: a write-ahead
// JSONL log alongside the result cache. Every submission appends (and
// fsyncs) a record carrying the job's ID and its normalized request
// BEFORE any cell is enqueued; every terminal transition appends (and
// fsyncs) a matching terminal record. On restart the service replays the
// journal, re-admits every job that was submitted but never reached a
// terminal state under its original ID, and lets the content-addressed
// result cache answer the cells that already completed — only the missing
// cells are re-simulated (see resume.go).
//
// The format is built to survive crashes and upgrades: one
// self-describing JSON object per line, unknown fields ignored (so
// future versions can add fields), malformed or truncated lines skipped
// on replay instead of failing startup, and the whole file compacted
// (terminal jobs dropped) atomically via temp+rename on load. Appends
// that fail degrade the journal to memory-only — availability over
// durability, surfaced through /healthz — rather than failing
// submissions.

// Journal record operations.
const (
	journalOpSubmit    = "submit"     // job admitted; Req carries the SweepRequest
	journalOpTerminal  = "terminal"   // job reached a terminal state
	journalOpNext      = "next"       // ID allocator floor (written by compaction)
	journalOpLease     = "lease"      // cell leased to a work-stealing peer
	journalOpLeaseDone = "lease-done" // leased cell's result delivered back
)

// journalVersion stamps each record; readers ignore records from a newer
// major version they cannot interpret (none exist yet — v1 only).
const journalVersion = 1

// journalFailLimit is how many consecutive append failures switch the
// journal to memory-only mode.
const journalFailLimit = 3

// journalRecord is one JSONL line.
type journalRecord struct {
	V     int             `json:"v"`
	Op    string          `json:"op"`
	ID    string          `json:"id,omitempty"`
	State string          `json:"state,omitempty"`  // terminal records
	Req   json.RawMessage `json:"req,omitempty"`    // submit records
	NextN int             `json:"next_n,omitempty"` // next records
	Key   string          `json:"key,omitempty"`    // lease records: cell cache key
	Thief string          `json:"thief,omitempty"`  // lease records: claiming node
	Until time.Time       `json:"until,omitempty"`  // lease records: expiry
	Time  time.Time       `json:"time,omitempty"`
}

// journalJob is a replayed job: submitted, possibly terminal.
type journalJob struct {
	id    string
	req   json.RawMessage
	state string // "" while non-terminal
}

// jobJournal is the append side. All methods are nil-receiver safe so the
// service pays one nil check when journaling is disabled.
type jobJournal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	inj      *faults.Injector
	errs     int  // consecutive append failures
	degraded bool // memory-only after journalFailLimit failures

	appends   uint64 // successful fsynced appends
	appendErr uint64 // failed appends (record lost)
	recovered int    // records replayed at open
	skipped   int    // malformed/truncated lines skipped at open
}

// openJournal replays the journal at path (tolerating a corrupt tail),
// compacts it (terminal jobs dropped, allocator floor preserved), and
// returns the append handle plus the replayed jobs in submission order
// and the highest job number ever allocated. It never fails startup: an
// unreadable file means an empty history; an unopenable file means a
// degraded (memory-only) journal.
func openJournal(path string, inj *faults.Injector) (*jobJournal, []journalJob, int) {
	j := &jobJournal{path: path, inj: inj}
	jobs, maxN := j.replayFile()
	// Compact: rewrite only the live (non-terminal) submissions plus the
	// allocator floor, atomically. A failed compaction keeps the old file
	// — correct, just longer.
	live := make([]journalJob, 0, len(jobs))
	for _, jb := range jobs {
		if jb.state == "" {
			live = append(live, jb)
		}
	}
	j.compact(live, maxN)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.degraded = true
		return j, live, maxN
	}
	j.f = f
	return j, live, maxN
}

// replayFile reads every parseable record. Lines that fail to parse —
// including a torn final line from a crash mid-write — are counted and
// skipped; duplicate submits and duplicate terminal transitions are
// idempotent (first submit wins, any terminal wins).
func (j *jobJournal) replayFile() ([]journalJob, int) {
	f, err := os.Open(j.path)
	if err != nil {
		return nil, 0
	}
	defer f.Close()
	byID := make(map[string]*journalJob)
	var order []string
	maxN := 0
	noteID := func(id string) {
		if n, ok := jobIDNumber(id); ok && n > maxN {
			maxN = n
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			j.skipped++
			continue
		}
		j.recovered++
		switch rec.Op {
		case journalOpSubmit:
			if rec.ID == "" || len(rec.Req) == 0 {
				j.skipped++
				continue
			}
			noteID(rec.ID)
			if _, dup := byID[rec.ID]; dup {
				continue
			}
			byID[rec.ID] = &journalJob{id: rec.ID, req: rec.Req}
			order = append(order, rec.ID)
		case journalOpTerminal:
			noteID(rec.ID)
			if jb, ok := byID[rec.ID]; ok && jb.state == "" {
				jb.state = rec.State
			}
			// A terminal for an unknown job (its submit line was torn) is
			// harmless: there is nothing to resume.
		case journalOpNext:
			if rec.NextN > maxN {
				maxN = rec.NextN
			}
		case journalOpLease, journalOpLeaseDone:
			// Steal-lease audit records: leases do not survive an owner
			// restart — the resumed job's cache-backed replay re-runs any
			// cell whose result never came back, and the content-addressed
			// cache keeps a late thief completion exactly-once.
		default:
			// Future record type: ignore, never fail.
		}
	}
	jobs := make([]journalJob, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, *byID[id])
	}
	// Defensive: submission order should already be ID order, but resume
	// re-admission relies on it, so sort by job number.
	sort.SliceStable(jobs, func(a, b int) bool {
		na, _ := jobIDNumber(jobs[a].id)
		nb, _ := jobIDNumber(jobs[b].id)
		return na < nb
	})
	return jobs, maxN
}

// compact atomically rewrites the journal as an allocator-floor record
// plus the live submissions. Failure is non-fatal (old file kept).
func (j *jobJournal) compact(live []journalJob, maxN int) {
	if maxN == 0 && len(live) == 0 {
		if _, err := os.Stat(j.path); err != nil {
			return // nothing on disk, nothing to write
		}
	}
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	enc := json.NewEncoder(f)
	ok := enc.Encode(journalRecord{V: journalVersion, Op: journalOpNext, NextN: maxN}) == nil
	for _, jb := range live {
		if !ok {
			break
		}
		ok = enc.Encode(journalRecord{V: journalVersion, Op: journalOpSubmit, ID: jb.id, Req: jb.req}) == nil
	}
	if ok {
		ok = f.Sync() == nil
	}
	if err := f.Close(); err != nil || !ok {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
	}
}

// append writes one record and fsyncs it — the fsync is the transition's
// durability point. A failure (real or injected) loses the record;
// journalFailLimit consecutive failures degrade the journal to
// memory-only. Returns whether the record is durable.
func (j *jobJournal) append(rec journalRecord) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded || j.f == nil {
		return false
	}
	rec.V = journalVersion
	rec.Time = time.Now().UTC()
	err := j.inj.JournalErr()
	if err == nil {
		var b []byte
		if b, err = json.Marshal(rec); err == nil {
			if _, err = j.f.Write(append(b, '\n')); err == nil {
				err = j.f.Sync()
			}
		}
	}
	if err != nil {
		j.appendErr++
		j.errs++
		if j.errs >= journalFailLimit {
			j.degraded = true
		}
		return false
	}
	j.errs = 0
	j.appends++
	return true
}

// submit journals a job admission (write-ahead: call before enqueuing any
// cell).
func (j *jobJournal) submit(id string, req json.RawMessage) bool {
	return j.append(journalRecord{Op: journalOpSubmit, ID: id, Req: req})
}

// terminal journals a job's terminal transition.
func (j *jobJournal) terminal(id string, state JobState) bool {
	return j.append(journalRecord{Op: journalOpTerminal, ID: id, State: string(state)})
}

// lease journals a cell's claim by a work-stealing peer (write-ahead:
// call before the claim is handed out).
func (j *jobJournal) lease(key, thief string, until time.Time) bool {
	return j.append(journalRecord{Op: journalOpLease, Key: key, Thief: thief, Until: until})
}

// leaseDone journals a leased cell's result landing back in the cache.
func (j *jobJournal) leaseDone(key string) bool {
	return j.append(journalRecord{Op: journalOpLeaseDone, Key: key})
}

// isDegraded reports whether the journal fell back to memory-only mode.
func (j *jobJournal) isDegraded() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// stats snapshots the journal counters (zeroes on nil).
func (j *jobJournal) stats() (appends, appendErrs uint64, recovered, skippedLines int) {
	if j == nil {
		return 0, 0, 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.appendErr, j.recovered, j.skipped
}

// register declares the journal's /metrics view on r; the values live
// under the journal's own lock and are sampled at scrape time.
func (j *jobJournal) register(r *obs.Registry) {
	r.NewCounterFunc("sdo_journal_appends_total", "Job-journal records durably appended (fsynced).",
		func() float64 { a, _, _, _ := j.stats(); return float64(a) })
	r.NewCounterFunc("sdo_journal_append_failures_total", "Job-journal appends that failed (record lost; journal degrades past the limit).",
		func() float64 { _, e, _, _ := j.stats(); return float64(e) })
	r.NewCounterFunc("sdo_journal_corrupt_lines_total", "Malformed or torn journal lines skipped during replay.",
		func() float64 { _, _, _, sk := j.stats(); return float64(sk) })
	r.NewGaugeFunc("sdo_journal_enabled", "1 while the job journal persists to disk, 0 when degraded to memory-only.",
		func() float64 {
			if j.isDegraded() {
				return 0
			}
			return 1
		})
}

// close releases the append handle.
func (j *jobJournal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// jobIDNumber extracts N from "sweep-N".
func jobIDNumber(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "sweep-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
