// Command sdoctl is the simulation service's command-line client: it
// submits sweep jobs to a running sdoserver, follows their progress, and
// fetches results — the curl incantations from the README as one tool.
//
// Usage:
//
//	sdoctl [-server URL] <command> [args]
//
//	sdoctl submit -workloads mcf_r,gcc_r -instrs 60000 -wait
//	sdoctl submit -sim-mode sampled -sample-interval 5000 -wait
//	sdoctl submit -ablations -wait
//	sdoctl list
//	sdoctl status sweep-1
//	sdoctl progress sweep-1          # stream per-run lines until done
//	sdoctl export sweep-1 -o out.json
//	sdoctl cancel sweep-1
//	sdoctl variants                  # list the registered protection schemes
//	sdoctl health
//	sdoctl metrics
//	sdoctl trace sweep-1             # span-tree trace (server: -trace)
//	sdoctl flight                    # flight recorder: last N events + build info
//
// The server defaults to $SDOCTL_SERVER, then http://localhost:8344.
// -server accepts a comma-separated node list (any member of a sdoserver
// cluster): idempotent GETs fail over to the next node on connection
// errors; submits and cancels never do.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/simsvc"
)

const envServer = "SDOCTL_SERVER"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func defaultServer() string {
	if s := os.Getenv(envServer); s != "" {
		return s
	}
	return "http://localhost:8344"
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: sdoctl [-server URL] <command> [args]

commands:
  submit    submit a sweep (see sdoctl submit -h)
  list      list all jobs
  status    show one job's status:        sdoctl status <id>
  progress  stream per-run progress:      sdoctl progress <id>
  export    fetch the result export JSON: sdoctl export <id> [-o file]
  cancel    cancel a running job:         sdoctl cancel <id>
  variants  list the registered protection schemes (/variants)
  health    show the server's /healthz document
  metrics   dump the server's /metrics document
  trace     show a sweep's span-tree trace:  sdoctl trace <id> [-format text|json|chrome] [-o file]
            (server must run -trace)
  flight    dump the flight recorder (/debug/flight: last events + build info)
`)
}

// run is the CLI body, factored out of main so tests can drive it against
// an httptest server and capture its output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdoctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", defaultServer(), "service base URL, or a comma-separated cluster node list with GET failover (also $"+envServer+")")
	fs.Usage = func() { usage(stderr); fmt.Fprintln(stderr, "\nglobal flags:"); fs.PrintDefaults() }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return 2
	}
	var bases []string
	for _, s := range strings.Split(*server, ",") {
		if s = strings.TrimRight(strings.TrimSpace(s), "/"); s != "" {
			bases = append(bases, s)
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(stderr, "sdoctl: empty -server list")
		return 2
	}
	c := &client{bases: bases, out: stdout, errw: stderr}
	cmd, rest := rest[0], rest[1:]
	needID := func() (string, bool) {
		if len(rest) < 1 || strings.HasPrefix(rest[0], "-") {
			fmt.Fprintf(stderr, "sdoctl %s: missing sweep id\n", cmd)
			return "", false
		}
		return rest[0], true
	}
	switch cmd {
	case "submit":
		return c.submit(rest)
	case "list":
		return c.list()
	case "status":
		id, ok := needID()
		if !ok {
			return 2
		}
		return c.showJSON("/sweeps/" + id)
	case "progress":
		id, ok := needID()
		if !ok {
			return 2
		}
		return c.progress(id)
	case "export":
		id, ok := needID()
		if !ok {
			return 2
		}
		return c.export(id, rest[1:])
	case "cancel":
		id, ok := needID()
		if !ok {
			return 2
		}
		return c.cancel(id)
	case "variants":
		return c.variants()
	case "health":
		return c.showJSON("/healthz")
	case "metrics":
		return c.stream("/metrics")
	case "trace":
		id, ok := needID()
		if !ok {
			return 2
		}
		return c.trace(id, rest[1:])
	case "flight":
		return c.showJSON("/debug/flight")
	default:
		fmt.Fprintf(stderr, "sdoctl: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
}

type client struct {
	// bases is the server list; cur indexes the node currently in use and
	// is sticky across requests, so after a failover the rest of the
	// invocation (e.g. submit -wait's progress stream) talks to the node
	// that answered. With a cluster behind it any node can serve any job.
	bases []string
	cur   int
	out   io.Writer
	errw  io.Writer
	hc    http.Client
}

func (c *client) base() string { return c.bases[c.cur] }

func (c *client) fail(err error) int {
	fmt.Fprintln(c.errw, "sdoctl:", err)
	return 1
}

// Transient-connection retry policy for idempotent GETs: a server that
// is restarting (resuming its journal) or briefly unreachable answers
// with connection refused/reset, and retrying is strictly better than
// failing the invocation. POST/DELETE are never retried — a submit that
// half-landed must not be replayed.
var (
	retryAttempts  = 4
	retryBaseDelay = 250 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// transientConnErr reports whether err looks like a connection-level
// failure worth retrying (refused, reset, or the connection dying before
// a response) rather than a definitive answer from the server.
func transientConnErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "connection refused") || strings.Contains(msg, "connection reset")
}

// do performs one request; any non-2xx response becomes an error carrying
// the server's message (and Retry-After hint on 429). Idempotent GETs are
// retried on transient connection errors with capped exponential backoff;
// with a multi-node -server list each retry round first fails over through
// the remaining nodes before sleeping. POST/DELETE never retry or fail
// over — a submit that half-landed must not be replayed.
func (c *client) do(method, path string, body io.Reader) (*http.Response, error) {
	var resp *http.Response
	var err error
	delay := retryBaseDelay
	for round := 1; ; round++ {
		for i := 0; i < len(c.bases); i++ {
			var req *http.Request
			req, err = http.NewRequest(method, c.base()+path, body)
			if err != nil {
				return nil, err
			}
			if body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err = c.hc.Do(req)
			if err == nil || method != http.MethodGet || !transientConnErr(err) {
				break
			}
			if len(c.bases) > 1 && i < len(c.bases)-1 {
				next := (c.cur + 1) % len(c.bases)
				fmt.Fprintf(c.errw, "sdoctl: %s %s: %v (failing over to %s)\n",
					method, path, err, c.bases[next])
				c.cur = next
			}
		}
		if err == nil {
			break
		}
		if method != http.MethodGet || round >= retryAttempts || !transientConnErr(err) {
			return nil, err
		}
		fmt.Fprintf(c.errw, "sdoctl: %s %s: %v (retrying in %s, attempt %d/%d)\n",
			method, path, err, delay, round, retryAttempts)
		time.Sleep(delay)
		if delay *= 2; delay > retryMaxDelay {
			delay = retryMaxDelay
		}
	}
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		msg := strings.TrimSpace(string(b))
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			msg += " (retry after " + ra + "s)"
		}
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, msg)
	}
	return resp, nil
}

// showJSON fetches path and pretty-prints the JSON document.
func (c *client) showJSON(path string) int {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	_, err = io.Copy(c.out, resp.Body)
	if err != nil {
		return c.fail(err)
	}
	return 0
}

// stream copies a text endpoint (progress lines, metrics) to stdout as it
// arrives.
func (c *client) stream(path string) int {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(c.out, resp.Body); err != nil {
		return c.fail(err)
	}
	return 0
}

func (c *client) submit(args []string) int {
	fs := flag.NewFlagSet("sdoctl submit", flag.ContinueOnError)
	fs.SetOutput(c.errw)
	var (
		wls    = fs.String("workloads", "", "comma-separated workload subset (default: all)")
		vars   = fs.String("variants", "", "comma-separated Table II variants (default: all)")
		models = fs.String("models", "", "comma-separated attack models (default: both)")
		instrs = fs.Uint64("instrs", 0, "measured instructions per run (0: server default)")
		warmup = fs.Int64("warmup", -1, "warmup instructions per run (-1: server default; 0 is an explicit no-warmup)")
		ivl    = fs.Uint64("interval", 0, "interval statistics every N cycles (0: off)")
		wmode  = fs.String("warmup-mode", "", "warmup mode: detailed or functional (default: detailed)")
		smode  = fs.String("sim-mode", "", "simulation mode: detailed or sampled (default: detailed)")
		sivl   = fs.Uint64("sample-interval", 0, "sampled mode: interval length in instructions (0: default)")
		smaxk  = fs.Int("sample-max-k", 0, "sampled mode: maximum representatives per workload (0: default)")
		sseed  = fs.Uint64("sample-seed", 0, "sampled mode: clustering seed (0: default)")
		ablate = fs.Bool("ablations", false, "run the design-space ablation study instead of a variant sweep")
		wait   = fs.Bool("wait", false, "stream progress until the job finishes; exit non-zero unless it completes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		parts := strings.Split(s, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	req := simsvc.SweepRequest{
		Workloads:            split(*wls),
		Variants:             split(*vars),
		Models:               split(*models),
		MaxInstrs:            *instrs,
		IntervalCycles:       *ivl,
		WarmupMode:           *wmode,
		SimMode:              *smode,
		SampleIntervalInstrs: *sivl,
		SampleMaxK:           *smaxk,
		SampleSeed:           *sseed,
		Ablations:            *ablate,
	}
	if *warmup >= 0 {
		w := uint64(*warmup)
		req.WarmupInstrs = &w
	}
	body, err := json.Marshal(req)
	if err != nil {
		return c.fail(err)
	}
	resp, err := c.do(http.MethodPost, "/sweeps", bytes.NewReader(body))
	if err != nil {
		return c.fail(err)
	}
	var st simsvc.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.out, "submitted %s (%d runs)\n", st.ID, st.Total)
	if !*wait {
		return 0
	}
	return c.progress(st.ID)
}

// progress streams a job's per-run lines until it reaches a terminal
// state, then reports that state in the exit code: 0 for done, 1 for
// failed/cancelled/degraded.
func (c *client) progress(id string) int {
	if code := c.stream("/sweeps/" + id + "/progress"); code != 0 {
		return code
	}
	st, err := c.status(id)
	if err != nil {
		return c.fail(err)
	}
	if st.State != simsvc.JobDone {
		return 1
	}
	return 0
}

func (c *client) status(id string) (simsvc.Status, error) {
	var st simsvc.Status
	resp, err := c.do(http.MethodGet, "/sweeps/"+id, nil)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (c *client) list() int {
	resp, err := c.do(http.MethodGet, "/sweeps", nil)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	var jobs []simsvc.Status
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return c.fail(err)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(c.out, "no sweeps")
		return 0
	}
	fmt.Fprintf(c.out, "%-10s %-10s %9s %8s %7s %8s\n", "ID", "STATE", "RUNS", "CACHED", "FAILED", "RETRIES")
	for _, j := range jobs {
		fmt.Fprintf(c.out, "%-10s %-10s %4d/%-4d %8d %7d %8d\n",
			j.ID, j.State, j.Completed, j.Total, j.Cached, j.Failed, j.Retries)
	}
	return 0
}

// variants lists the registered protection schemes as a table: the exact
// names (and aliases) `sdoctl submit -variants` accepts.
func (c *client) variants() int {
	resp, err := c.do(http.MethodGet, "/variants", nil)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	var schemes []simsvc.VariantInfo
	if err := json.NewDecoder(resp.Body).Decode(&schemes); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.out, "%-12s %-28s %s\n", "NAME", "ALIASES", "DESCRIPTION")
	for _, s := range schemes {
		fmt.Fprintf(c.out, "%-12s %-28s %s\n", s.Name, strings.Join(s.Aliases, ","), s.Description)
	}
	return 0
}

func (c *client) export(id string, args []string) int {
	fs := flag.NewFlagSet("sdoctl export", flag.ContinueOnError)
	fs.SetOutput(c.errw)
	out := fs.String("o", "", "write the export to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	resp, err := c.do(http.MethodGet, "/sweeps/"+id+"/export", nil)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	w := c.out
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return c.fail(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return c.fail(err)
	}
	if *out != "" {
		fmt.Fprintf(c.errw, "sdoctl: export written to %s\n", *out)
	}
	return 0
}

// trace fetches a sweep's span-tree trace. The default text rendering is
// an indented tree with a per-cell attribution summary; -format json and
// -format chrome pass the server documents through (chrome is loadable
// in chrome://tracing or Perfetto).
func (c *client) trace(id string, args []string) int {
	fs := flag.NewFlagSet("sdoctl trace", flag.ContinueOnError)
	fs.SetOutput(c.errw)
	format := fs.String("format", "text", "output format: text, json, or chrome")
	out := fs.String("o", "", "write the trace to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path := "/sweeps/" + id + "/trace"
	switch *format {
	case "text", "json":
	case "chrome":
		path += "?format=chrome"
	default:
		fmt.Fprintf(c.errw, "sdoctl trace: unknown format %q (want text, json or chrome)\n", *format)
		return 2
	}
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	w := c.out
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return c.fail(err)
		}
		defer f.Close()
		w = f
	}
	if *format != "text" {
		if _, err := io.Copy(w, resp.Body); err != nil {
			return c.fail(err)
		}
		return 0
	}
	var doc trace.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(w, "%s  (epoch %s, %d cells)\n", doc.ID, doc.Epoch.Format(time.RFC3339), len(doc.Cells))
	for _, cell := range doc.Cells {
		fmt.Fprintf(w, "\n%s\n", cell.Cell)
		printNode(w, cell.Spans, 1)
		if cell.Attribution != nil {
			fmt.Fprintf(w, "  = %s\n", cell.Attribution.Summary())
		}
	}
	return 0
}

// printNode renders one span subtree as an indented duration tree.
func printNode(w io.Writer, n *trace.Node, depth int) {
	if n == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	label := n.Name
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, k+"="+n.Attrs[k])
		}
		label += " [" + strings.Join(parts, " ") + "]"
	}
	fmt.Fprintf(w, "%s%-40s %10.1fms  @%+.1fms\n", indent, label,
		float64(n.DurUS)/1e3, float64(n.StartUS)/1e3)
	for _, c := range n.Children {
		printNode(w, c, depth+1)
	}
}

func (c *client) cancel(id string) int {
	resp, err := c.do(http.MethodDelete, "/sweeps/"+id, nil)
	if err != nil {
		return c.fail(err)
	}
	defer resp.Body.Close()
	var st simsvc.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.out, "%s: %s\n", st.ID, st.State)
	return 0
}
