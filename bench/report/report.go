// Package report holds the types the benchmark driver and its probes
// program exchange: metric values and the spans of a traced run.
package report

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer: a probe call
// or an HTTP request of a workload. Spans of one benchmark run share
// RunID; Parent is the ID of the span that caused this one (0 for a
// root). SelfUS is filled in when the recorder is flushed: the span's
// duration minus the part its children cover.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	RunID   string `json:"run_id"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	SelfUS  int64  `json:"self_us"`
}

// Recorder keeps spans in memory until flush. A nil recorder records
// nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	runID string
	spans []Span
}

// NewRecorder starts a recorder whose spans carry runID.
func NewRecorder(runID string) *Recorder {
	return &Recorder{epoch: time.Now(), runID: runID}
}

// Start opens a span under parent (0 for none) and returns its ID.
func (r *Recorder) Start(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, RunID: r.runID, Name: name,
		StartUS: time.Since(r.epoch).Microseconds()})
	return id
}

// End closes a span.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndUS = time.Since(r.epoch).Microseconds()
}

// Adopt appends spans recorded by another process (the probes program),
// re-numbering them and hanging their roots under parent. offsetUS shifts
// their clock onto this recorder's epoch.
func (r *Recorder) Adopt(spans []Span, parent int, offsetUS int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.RunID = r.runID
		s.StartUS += offsetUS
		s.EndUS += offsetUS
		r.spans = append(r.spans, s)
	}
}

// Finish computes every span's self time and returns the spans.
func (r *Recorder) Finish() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		r.spans[i].SelfUS = r.spans[i].EndUS - r.spans[i].StartUS
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].SelfUS -= s.EndUS - s.StartUS
		}
	}
	return r.spans
}

// Flush writes the spans as one JSON document.
func (r *Recorder) Flush(path string) error {
	if r == nil {
		return nil
	}
	b, err := json.MarshalIndent(struct {
		RunID string `json:"run_id"`
		Spans []Span `json:"spans"`
	}{r.runID, r.Finish()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Probes is what the probes program prints: its metrics, and the span
// around each probe with the clock they were taken on.
type Probes struct {
	EpochUnixUS int64            `json:"epoch_unix_us"`
	Metrics     map[string]Value `json:"metrics"`
	Spans       []Span           `json:"spans"`
}

// EpochUnixUS is the recorder's time origin, for merging spans recorded
// by another process.
func (r *Recorder) EpochUnixUS() int64 { return r.epoch.UnixMicro() }
