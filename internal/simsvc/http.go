package simsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST   /sweeps               submit a sweep (harness.Request JSON) -> Status;
//	                             429 + Retry-After when the queue is full
//	GET    /sweeps               list job statuses
//	GET    /sweeps/{id}          one job's status
//	DELETE /sweeps/{id}          cancel a job (idempotent: 200 while it can
//	                             be or already is cancelled, 409 once finished)
//	GET    /sweeps/{id}/progress stream per-run progress lines (text/plain)
//	GET    /sweeps/{id}/export   harness.Export JSON (blocks until done);
//	                             ablation jobs return harness.AblationExport
//	GET    /sweeps/{id}/trace    span-tree trace JSON (?format=chrome for the
//	                             Chrome trace-event form); registered only
//	                             with tracing enabled
//	POST   /cache/lookup         a peer's batched lookup (internal/fabric):
//	                             the body lists cache keys, one per line;
//	                             the answer holds each held key's entry
//	                             file {key, sum, result}, back to back
//	GET    /cluster/steal        a thief's claim: lease up to ?max= queued
//	                             cells to the caller; registered only
//	                             with stealing on, as are the next two
//	POST   /cluster/complete     a thief's finished cell (?key=, body an
//	                             entry file) settles its lease
//	POST   /cluster/wake         a peer's hint that it has cells to steal
//	GET    /variants             registered protection schemes: name,
//	                             aliases, one-line description
//	GET    /debug/flight         flight recorder: the last N observability
//	                             events plus the binary's build identity
//	GET    /healthz              liveness probe: Health JSON; 200 while
//	                             serving ("ok"/"degraded"), 503 draining
//	GET    /metrics              Prometheus-style counters
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		code := http.StatusOK
		if h.Status == "draining" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /sweeps/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /sweeps/{id}/export", s.handleExport)
	if s.tracer != nil {
		// GET /sweeps/{id}/trace — registered only with -trace, so an
		// untraced server's API surface is unchanged.
		mux.HandleFunc("GET /sweeps/{id}/trace", s.handleTrace)
	}
	mux.HandleFunc("POST /cache/lookup", s.handleCacheLookup)
	if s.steal != nil {
		mux.HandleFunc("GET /cluster/steal", s.handleSteal)
		mux.HandleFunc("POST /cluster/complete", s.handleComplete)
		mux.HandleFunc("POST /cluster/wake", s.handleWake)
	}
	mux.HandleFunc("GET /variants", s.handleVariants)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	return mux
}

// handleCacheLookup answers a peer's batched lookup (fabric.ServeLookup)
// with each held key's stored wire bytes — the bytes of its file — which
// the peer vets with the same rule as a file read from disk. Each lookup
// is a peek: peer traffic must not skew this node's demand hit/miss
// counters or LRU order, and a key that is not a cache key is a miss
// without touching the disk.
func (s *Service) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	fabric.ServeLookup(w, r, s.cache.PeekEncoded)
}

// VariantInfo is one /variants row: a registered protection scheme as
// sweep submissions may name it.
type VariantInfo struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description"`
	SDO         bool     `json:"sdo,omitempty"`
	TableII     bool     `json:"table2,omitempty"`
}

// handleVariants lists the registered protection schemes — the open
// registry sdoctl and sweep authors discover valid variant names from.
func (s *Service) handleVariants(w http.ResponseWriter, r *http.Request) {
	schemes := core.Schemes()
	out := make([]VariantInfo, 0, len(schemes))
	for _, sc := range schemes {
		out = append(out, VariantInfo{
			Name: sc.Name, Aliases: sc.Aliases, Description: sc.Description,
			SDO: sc.SDO, TableII: sc.TableII,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, _ := harness.IndentedJSON(v) // nil, an empty body, if v cannot be encoded
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req harness.Request
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	j, err := s.Submit(req)
	if err == ErrClosed {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	var oe *OverloadError
	if errors.As(err, &oe) {
		w.Header().Set("Retry-After", strconv.Itoa(int(oe.RetryAfter.Round(time.Second)/time.Second)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves {id} or writes a 404.
func (s *Service) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown sweep", http.StatusNotFound)
	}
	return j, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// handleCancel cancels a job. DELETE is idempotent: cancelling a running
// job and re-cancelling an already-cancelled one both return 200 with the
// job's status; a job that already finished (done/failed/degraded) cannot
// be cancelled and returns 409 explaining why.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	did, state := j.TryCancel()
	if !did && state != JobCancelled {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("sweep %s already finished (%s); nothing to cancel", j.ID, state),
			"state": string(state),
		})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleProgress streams progress lines as they are produced, one per
// completed run, until the job finishes or the client goes away.
func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	fl, _ := w.(http.Flusher)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	i := 0
	flush := func() {
		var lines []string
		lines, i = j.ProgressSince(i)
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
		if len(lines) > 0 && fl != nil {
			fl.Flush()
		}
	}
	for {
		flush()
		select {
		case <-j.Done():
			flush()
			st := j.Status()
			trailer := fmt.Sprintf("# sweep %s: %s (%d/%d runs, %d cached",
				st.ID, st.State, st.Completed, st.Total, st.Cached)
			if st.Failed > 0 {
				trailer += fmt.Sprintf(", %d failed", st.Failed)
			}
			fmt.Fprintln(w, trailer+")")
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// handleExport waits for the job and writes the harness.Export JSON —
// the exact document cmd/experiments -export produces for the same
// options. Ablation jobs write a harness.AblationExport instead.
func (s *Service) handleExport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		return
	}
	if j.Ablation() {
		ex, err := j.Ablations()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, http.StatusOK, ex)
		return
	}
	res, err := j.Results()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	res.WriteJSON(w)
}

// handleTrace serves a job's span-tree trace. Safe while the job still
// runs (open spans report duration-so-far); ?format=chrome renders the
// Chrome trace-event form for chrome://tracing / Perfetto.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	jt := j.Trace()
	if jt == nil {
		http.Error(w, "no trace for this sweep (submitted before tracing was enabled, or evicted)",
			http.StatusNotFound)
		return
	}
	doc := jt.Doc()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		doc.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// flightEvent is one flight-recorder event with the class rendered as
// its name (the raw obs.Event omits Class from JSON).
type flightEvent struct {
	obs.Event
	Class string `json:"class"`
}

// flightDoc is the /debug/flight document: build identity plus the last
// N observability events from the always-on ring sink.
type flightDoc struct {
	Build  obs.Build     `json:"build"`
	Events []flightEvent `json:"events"`
}

// handleFlight serves the flight recorder. Always registered: the ring
// runs whatever Recorder or tracing configuration is active, so there is
// a tail of evidence even on an otherwise-unobserved server.
func (s *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	evs := s.flight.Events()
	doc := flightDoc{Build: obs.ReadBuild(), Events: make([]flightEvent, 0, len(evs))}
	for _, e := range evs {
		doc.Events = append(doc.Events, flightEvent{Event: e, Class: e.Class.String()})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleMetrics writes the registry in the Prometheus text exposition
// format (no client library: stdlib only — see internal/obs).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.ServeHTTP(w, r)
}
