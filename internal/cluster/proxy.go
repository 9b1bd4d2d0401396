package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs/trace"
	"repro/internal/simsvc"
)

// Handler returns the node's HTTP handler: the wrapped service's full
// API plus cluster routing (proxy + scatter-gather) and the /cluster
// control endpoints.
func (n *Node) Handler() http.Handler {
	base := n.svc.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster", n.handleInfo)
	mux.HandleFunc("GET /cluster/steal", n.handleSteal)
	mux.HandleFunc("POST /cluster/complete", n.handleComplete)
	mux.HandleFunc("POST /cluster/wake", n.handleWake)
	if n.tr != nil {
		mux.HandleFunc("GET /cluster/trace", n.handleClusterTrace)
	}
	mux.Handle("/", n.route(base))
	return mux
}

// route wraps the service handler with cluster routing:
//
//   - GET /sweeps fans out to every member and merges (scatter-gather),
//     unless the request already hopped here from a peer.
//   - POST /sweeps is always local; one that leaves more cells
//     outstanding than the node has workers has the steal loop hint the
//     peers (once per submission, never per cell).
//   - /sweeps/{id}... for a job the local service holds is served
//     locally — ownership is a partition of the ID space, so holding
//     the job means being its home.
//   - /sweeps/{id}... for an unknown job is proxied along the job's
//     rendezvous ranking. A request carrying the hop header is never
//     forwarded again (loop prevention): it gets the local 404.
func (n *Node) route(base http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/sweeps" &&
			r.Header.Get(HopHeader) == "" && len(n.cfg.Members) > 1 {
			n.scatterList(w, r)
			return
		}
		id := sweepID(r.URL.Path)
		if id == "" {
			base.ServeHTTP(w, r)
			if r.Method == http.MethodPost && r.URL.Path == "/sweeps" && n.stealing() && n.svc.IdleWorkers() < 0 {
				select {
				case n.queued <- struct{}{}:
				default: // a hint round is already due
				}
			}
			return
		}
		if _, ok := n.svc.Job(id); ok {
			base.ServeHTTP(w, r)
			return
		}
		if r.Header.Get(HopHeader) != "" {
			// Already forwarded once; answer locally (a 404) rather
			// than risk a proxy cycle under membership disagreement.
			base.ServeHTTP(w, r)
			return
		}
		n.proxyJob(w, r, id)
	})
}

// sweepID extracts {id} from a /sweeps/{id}[/...] path, or "".
func sweepID(path string) string {
	rest, ok := strings.CutPrefix(path, "/sweeps/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// proxyJob forwards a per-job request along the job's rendezvous
// ranking. The top-ranked member is the owner: if it is unreachable the
// client gets an honest 503 naming it, not a hang. Lower-ranked members
// are only consulted after a clean 404 (membership drift: a job
// admitted under an older member set may live off its current ranking).
func (n *Node) proxyJob(w http.ResponseWriter, r *http.Request, id string) {
	order := fabric.Rank(id, n.ids)
	owner := order[0]
	var sp *trace.Span
	if n.jt != nil {
		ct := n.jt.StartCell(r.Method+" "+r.URL.Path, time.Now())
		sp = ct.Root().Child(trace.PhaseProxy)
		sp.Set("job", id)
		sp.Set("owner", owner)
		defer func() { sp.Finish(); ct.Finish() }()
	}

	// Per-job requests carry no meaningful body (submit is POST /sweeps,
	// always local), but buffer defensively so ranked retries never
	// replay a half-consumed stream.
	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(io.LimitReader(r.Body, 1<<20))
	}

	for _, mid := range order {
		if mid == n.self.ID {
			continue // already missed locally
		}
		m := n.byID[mid]
		resp, err := n.forward(r, m, body)
		if err != nil {
			if mid == owner {
				n.proxyErrors.Inc()
				if sp != nil {
					sp.Set("outcome", "owner-unreachable")
				}
				w.Header().Set(OwnerHeader, owner+" "+m.URL)
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{
					"error":     "cluster owner unreachable",
					"owner":     owner,
					"owner_url": m.URL,
					"detail":    err.Error(),
				})
				return
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		n.proxied.Inc()
		if sp != nil {
			sp.Set("served-by", mid)
			sp.Set("status", strconv.Itoa(resp.StatusCode))
		}
		copyResponse(w, resp, mid)
		resp.Body.Close()
		return
	}
	if sp != nil {
		sp.Set("outcome", "unknown-job")
	}
	http.Error(w, "unknown job", http.StatusNotFound)
}

// forward replays r against member m with the hop header set. Its only
// deadline is the client's own request context: /export blocks until the
// job finishes and /progress streams, so a dead owner fails fast (dial
// bound, open breaker) and a slow sweep does not.
func (n *Node) forward(r *http.Request, m Member, body []byte) (*http.Response, error) {
	h := r.Header.Clone()
	h.Set(HopHeader, n.self.ID)
	return n.fab.Do(r.Context(), m.URL, r.Method, r.URL.RequestURI(), h, body)
}

// rpc sends one short cluster RPC to member m, bounded by rpcTimeout, and
// decodes the JSON body of a 2xx answer into out (nil: discarded). Any
// other status is an error.
func (n *Node) rpc(ctx context.Context, m Member, method, path string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, rpcTimeout)
	defer cancel()
	resp, err := n.fab.Do(ctx, m.URL, method, path, http.Header{HopHeader: {n.self.ID}}, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// copyResponse relays a proxied response, flushing after every chunk so
// streaming endpoints (/progress) stay live through the proxy.
func copyResponse(w http.ResponseWriter, resp *http.Response, via string) {
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set(ViaHeader, via)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, err := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// scatterList answers GET /sweeps with the merged listing of every
// member. Unreachable peers degrade the answer, honestly: the response
// still succeeds with what was gathered, and the Partial header names
// the nodes whose jobs may be missing.
func (n *Node) scatterList(w http.ResponseWriter, r *http.Request) {
	n.scatters.Inc()
	merged := make(map[string]simsvc.Status)
	for _, j := range n.svc.Jobs() {
		st := j.Status()
		merged[st.ID] = st
	}

	others := n.others()
	lists := make([][]simsvc.Status, len(others))
	errs := make([]error, len(others))
	var wg sync.WaitGroup
	for i, m := range others {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			errs[i] = n.rpc(r.Context(), m, http.MethodGet, "/sweeps", nil, &lists[i])
		}(i, m)
	}
	wg.Wait()

	var down []string
	for i, m := range others {
		if errs[i] != nil {
			down = append(down, m.ID)
			continue
		}
		for _, st := range lists[i] {
			// Local state wins on ID collisions: this node is the
			// authority for every job it holds.
			if _, ok := merged[st.ID]; !ok {
				merged[st.ID] = st
			}
		}
	}

	out := make([]simsvc.Status, 0, len(merged))
	for _, st := range merged {
		out = append(out, st)
	}
	sortStatuses(out)
	if len(down) > 0 {
		w.Header().Set(PartialHeader, strings.Join(down, ","))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleInfo describes the membership and this node's place in it.
func (n *Node) handleInfo(w http.ResponseWriter, _ *http.Request) {
	type memberInfo struct {
		Member
		Self bool `json:"self,omitempty"`
	}
	out := struct {
		Self     string       `json:"self"`
		Members  []memberInfo `json:"members"`
		Stealing bool         `json:"stealing"`
	}{Self: n.self.ID, Stealing: n.stealing()}
	for _, m := range n.cfg.Members {
		out.Members = append(out.Members, memberInfo{Member: m, Self: m.ID == n.self.ID})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSteal hands out lease-protected queued cells to a thief, as
// many as it has free slots for (?max=, one when absent). An empty list
// is the normal answer on an idle or drained node.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	max := 1
	if v, err := strconv.Atoi(r.URL.Query().Get("max")); err == nil && v > 0 {
		max = v
	}
	thief := r.URL.Query().Get("thief")
	if thief == "" {
		thief = r.RemoteAddr
	}
	cells := n.svc.StealCells(thief, max)
	if cells == nil {
		cells = []simsvc.StolenCell{}
	}
	writeJSON(w, http.StatusOK, cells)
}

// handleComplete accepts a thief's finished cell (the content-addressed
// wire entry) and settles the lease.
func (n *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := n.svc.CompleteSteal(key, body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleWake takes a peer's hint that it has queued cells to spare and
// wakes the steal loop, which polls that peer first. Hints coalesce; with
// stealing off they are acknowledged and ignored.
func (n *Node) handleWake(w http.ResponseWriter, r *http.Request) {
	if n.stealing() {
		n.hints.Inc()
		select {
		case n.hinted <- wakeup{why: "hint", from: r.URL.Query().Get("from")}:
		default: // the loop is already due to wake on an earlier hint
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterTrace serves the node's cluster-layer span tree (proxy
// and steal-claim spans). Registered only with tracing on.
func (n *Node) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	doc := n.jt.Doc()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		doc.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
