package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/report"
)

// buildBinary compiles one main package of the repository into bin and
// returns how long the Go toolchain took (with a warm build cache this
// measures the cache, not the program).
func buildBinary(dir, pkg, bin string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
	}
	return time.Since(start), nil
}

// node is one sdoserver subprocess.
type node struct {
	id      string
	url     string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once Wait has returned
	// timed marks a node that ran during the timed part; cpuMark is the
	// CPU it had already used when that part began (0 for a node started
	// inside it).
	timed   bool
	cpuMark float64
	// Filled in by stop from the process's rusage.
	cpuS  float64
	rssMB float64
}

// alive reports whether the process has not exited yet.
func (n *node) alive() bool {
	select {
	case <-n.exited:
		return false
	default:
		return true
	}
}

// fleet owns every server process of one workload run, their scratch
// directories and their logs, and guarantees none outlives the run.
type fleet struct {
	bin     string
	tmp     string // scratch root for cache/journal files, removed on close
	logs    string
	trace   bool
	spans   *report.Recorder
	client  *http.Client
	mu      sync.Mutex
	nodes   []*node
	nextLog int
	timing  bool // markTimed has been called: nodes started from now on are timed
}

func newFleet(bin, tmpRoot, logs string, trace bool, spans *report.Recorder) (*fleet, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logs, 0o755); err != nil {
		return nil, err
	}
	return &fleet{bin: bin, tmp: tmp, logs: logs, trace: trace, spans: spans,
		// One load-generating process, one connection per server, no
		// environment proxy between the benchmark and 127.0.0.1.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}, nil
}

// freeAddrs reserves n distinct free 127.0.0.1 ports by binding port 0,
// and releases them just before the servers bind them.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// scratch returns a fresh empty directory for one node's cache files.
func (f *fleet) scratch(name string) (string, error) {
	return os.MkdirTemp(f.tmp, name+"-")
}

// start launches one server on addr with product-default flags except the
// topology flags given, and waits until /healthz answers 200.
func (f *fleet) start(ctx context.Context, id, addr string, args ...string) (*node, error) {
	sp := f.spans.Start("node.start "+id, 0)
	defer f.spans.End(sp)
	f.mu.Lock()
	f.nextLog++
	logPath := filepath.Join(f.logs, fmt.Sprintf("%03d-%s.log", f.nextLog, id))
	f.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	argv := append([]string{"-addr", addr}, args...)
	if f.trace {
		argv = append(argv, "-trace")
	}
	cmd := exec.Command(f.bin, argv...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{id: id, url: "http://" + addr, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(n.exited)
	}()
	f.mu.Lock()
	n.timed = f.timing
	f.nodes = append(f.nodes, n)
	f.mu.Unlock()

	deadline := time.Now().Add(20 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
		resp, err := f.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, nil
			}
		}
		select {
		case <-n.exited:
			return nil, fmt.Errorf("node %s exited during start-up\n%s", id, logTail(logPath, 20))
		case <-ctx.Done():
			return nil, fmt.Errorf("node %s start-up: %w\n%s", id, ctx.Err(), logTail(logPath, 20))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node %s not healthy after 20s\n%s", id, logTail(logPath, 20))
		}
	}
}

// stop shuts a node down the way an operator would (SIGINT: drain,
// persist the cache), escalating to SIGKILL if it does not exit, and
// records its CPU and peak memory from the kernel's rusage.
func (f *fleet) stop(n *node) {
	if n.alive() {
		n.cmd.Process.Signal(syscall.SIGINT)
		select {
		case <-n.exited:
		case <-time.After(15 * time.Second):
			n.cmd.Process.Kill()
			<-n.exited
		}
	}
	if ps := n.cmd.ProcessState; ps != nil && n.rssMB == 0 {
		n.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			n.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kB
		}
	}
}

// markTimed starts the timed part: nodes alive now are charged only for
// the CPU they use from here on, nodes already stopped (set-up) not at
// all, nodes started later in full.
func (f *fleet) markTimed() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.timing = true
	for _, n := range f.nodes {
		if n.alive() {
			n.timed = true
			n.cpuMark = procCPU(n.cmd.Process.Pid)
		}
	}
}

// close stops every node still running and removes the scratch files.
// Safe to call more than once.
func (f *fleet) close() {
	f.mu.Lock()
	nodes := append([]*node(nil), f.nodes...)
	f.mu.Unlock()
	for _, n := range nodes {
		if n.alive() {
			n.cmd.Process.Kill()
			<-n.exited
		}
	}
	os.RemoveAll(f.tmp)
}

// liveLogTails returns the last lines of the output of every node still
// running: what a failed or hung workload prints before it is killed.
func (f *fleet) liveLogTails() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var tails []string
	for _, n := range f.nodes {
		if n.alive() {
			tails = append(tails, logTail(n.logPath, 15))
		}
	}
	return strings.Join(tails, "\n")
}

// usage sums the CPU the timed nodes used in the timed part and returns
// their largest peak resident set. Call after every node has been stopped.
func (f *fleet) usage() (cpuS, peakRSSMB float64, perNodeCPU map[string]float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	perNodeCPU = map[string]float64{}
	for _, n := range f.nodes {
		if !n.timed {
			continue
		}
		c := max(n.cpuS-n.cpuMark, 0)
		cpuS += c
		perNodeCPU[n.id] += c
		if n.rssMB > peakRSSMB {
			peakRSSMB = n.rssMB
		}
	}
	return cpuS, peakRSSMB, perNodeCPU
}

// procCPU reads a live process's user+system CPU seconds from
// /proc/<pid>/stat (clock ticks of 1/100 s on Linux).
func procCPU(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// logTail returns the last n lines of a node's captured output.
func logTail(path string, n int) string {
	file, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer file.Close()
	var lines []string
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > n {
			lines = lines[1:]
		}
	}
	return "--- " + path + " (tail) ---\n" + strings.Join(lines, "\n")
}

// scrape fetches the /metrics of the given nodes and returns the
// un-labelled sample lines as name -> value, summed over the nodes.
func (f *fleet) scrape(ctx context.Context, nodes ...*node) (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range nodes {
		if err := f.scrapeInto(ctx, n, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f *fleet) scrapeInto(ctx context.Context, n *node, out map[string]float64) error {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/metrics", nil)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/metrics: %s", n.url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				out[name] += v
			}
		}
	}
	return sc.Err()
}
