// Command bench is the repository's benchmark: it builds cmd/sdoserver,
// drives it over HTTP through the workloads BENCHMARK.json names, checks
// every export against expected_results.txt, and reports the end-to-end
// metrics (tracing off) or the per-layer metrics (a traced run). See
// README.md in this directory.
//
//	cd bench && go run .                          # every workload, end-to-end metrics
//	cd bench && go run . -workload fig6-cold      # one workload
//	cd bench && go run . -trace 1                 # per-layer metrics + out/trace.json
//	cd bench && go run . -runs 10 -out out/a      # ten seeds per workload, for -compare
//	cd bench && go run . -compare out/a/result.json out/b/result.json
//
// The benchmark contract's driver runs `bash bench/run.sh --workload W
// --seed N --seconds S --trace T` from the repository root; the last line
// on standard output is then the run's JSON result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/bench/report"
)

// header identifies the machine, the commit and the sizes a result file
// was measured with.
type header struct {
	Time       string  `json:"time"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
	BuildS     float64 `json:"build_s"`
}

// runRecord is one run of one workload as stored in the result file.
type runRecord struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Trace     bool                    `json:"trace"`
	Sweeps    int                     `json:"n"`
	Setups    int                     `json:"n_setup"`
	Cells     int                     `json:"cells"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]report.Value `json:"metrics"`
	WallS     []float64               `json:"sweep_wall_samples_s,omitempty"`
}

// resultDoc is the one JSON document a benchmark invocation writes.
type resultDoc struct {
	Header header      `json:"header"`
	Runs   []runRecord `json:"runs"`
}

// runLine is the contract's result: the last line of standard output.
type runLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]report.Value `json:"metrics"`
}

type bench struct {
	root    string
	spec    *Spec
	sz      sizes
	out     string
	build   string // .bench_build: binaries and scratch files, inside the checkout
	seconds float64
	trace   bool
	want    map[string]fig6Table
	server  string
	coldRef []byte // fig6-cold export of this invocation
	stdout  io.Writer
}

func gitState(root string) (sha string, dirty bool) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(strings.TrimSpace(string(st))) > 0
}

// probes builds and runs the probes program and returns its report.
func (b *bench) probes(seed int64, spans *report.Recorder) (*report.Probes, error) {
	bin := filepath.Join(b.build, "bin", "sdoprobes")
	if _, err := buildBinary(filepath.Join(b.root, "bench"), "./probes", bin); err != nil {
		return nil, err
	}
	reps := 3
	if !b.sz.PaperDefault {
		reps = 1
	}
	sp := spans.Start("probes", 0)
	defer spans.End(sp)
	cmd := exec.Command(bin, "-seed", fmt.Sprint(seed), "-kernels", strings.Join(b.sz.Kernels, ","),
		"-warmup", fmt.Sprint(b.sz.WarmupInstrs), "-instrs", fmt.Sprint(b.sz.MaxInstrs), "-reps", fmt.Sprint(reps))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	var p report.Probes
	if err := json.Unmarshal(out, &p); err != nil {
		return nil, fmt.Errorf("probes: unreadable report: %w", err)
	}
	spans.Adopt(p.Spans, sp, p.EpochUnixUS-spans.EpochUnixUS())
	return &p, nil
}

// runOne runs one workload once and turns its samples into metrics.
func (b *bench) runOne(ctx context.Context, name string, seed int64) (runRecord, error) {
	var spans *report.Recorder
	layer := map[string]report.Value{}
	if b.trace {
		spans = report.NewRecorder(fmt.Sprintf("%s-seed%d", name, seed))
		p, err := b.probes(seed, spans)
		if err != nil {
			return runRecord{}, err
		}
		layer = p.Metrics
	}
	f, err := newFleet(b.server, filepath.Join(b.build, "tmp"), filepath.Join(b.out, "logs", name), b.trace, spans)
	if err != nil {
		return runRecord{}, err
	}
	w := &wlRun{name: name, seed: seed, seconds: b.seconds, sz: b.sz, f: f, want: b.want}
	if name != "fig6-cold" {
		w.ref = b.coldRef
	}
	runErr := w.run(ctx)
	if b.trace {
		if err := spans.Flush(filepath.Join(b.out, "trace.json")); err != nil {
			return runRecord{}, err
		}
	}
	if runErr != nil {
		return runRecord{}, fmt.Errorf("%s: %w", name, runErr)
	}
	if name == "fig6-cold" && !b.trace {
		b.coldRef = w.first
	}

	cpu, rss, perNode := f.usage()
	n := float64(len(w.walls))
	wall := median(w.walls)
	e2e := map[string]float64{
		"setup_s":      median(w.setups),
		"sweep_wall_s": wall,
		"sim_kips":     float64(w.cells) * float64(b.sz.WarmupInstrs+b.sz.MaxInstrs) / wall / 1e3,
		"server_cpu_s": cpu / n,
		"peak_rss_mb":  rss,
	}
	w.layer["simsvc.submit_ms"] = median(w.submits)
	w.layer["simsvc.worker_utilization"] = cpu / n / (float64(w.workers) * wall)
	w.layer["obs.traced_sweep_wall_s"] = wall
	if name == "cluster3-cold" {
		var cs []float64
		for _, c := range perNode {
			cs = append(cs, c)
		}
		w.layer["cluster.node_cpu_imbalance"] = ratio(slices.Max(cs), slices.Min(cs))
	}

	rec := runRecord{Workload: name, Seed: seed, Trace: b.trace, Sweeps: len(w.walls), Setups: len(w.setups),
		Cells: w.cells, Attempted: w.attempted, Failed: w.failed, Failures: w.failures,
		Metrics: map[string]report.Value{}, WallS: w.walls}
	if b.trace {
		// Every declared per-layer metric is reported on every workload; a
		// layer this workload does not exercise reads 0.
		for name, v := range w.layer {
			layer[name] = report.Value{Value: v}
		}
		for _, m := range b.spec.PerLayer {
			v := layer[m.Name]
			if v.Unit == "" {
				v.Unit = m.Unit
			}
			rec.Metrics[m.Name] = v
			delete(layer, m.Name)
		}
		for name := range layer {
			rec.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("per-layer metric %s is measured but not declared in BENCHMARK.json", name))
		}
		rec.Attempted += len(b.spec.PerLayer)
	} else {
		for _, m := range b.spec.EndToEnd {
			v, ok := e2e[m.Name]
			if !ok || v == 0 || v != v {
				rec.Failed++
				rec.Failures = append(rec.Failures, fmt.Sprintf("end-to-end metric %s was not measured", m.Name))
			}
			rec.Metrics[m.Name] = report.Value{Value: v, Unit: m.Unit}
		}
		rec.Attempted += len(b.spec.EndToEnd)
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// printRun prints the human table of one run, then the contract's JSON
// line.
func (b *bench) printRun(rec runRecord) {
	fmt.Fprintf(b.stdout, "\n%s  seed=%d  trace=%v  cells=%d  n=%d sweeps, %d set-ups  checks: %d attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Cells, rec.Sweeps, rec.Setups, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := rec.Sweeps
		if k == "setup_s" {
			n = rec.Setups
		}
		fmt.Fprintf(b.stdout, "  %-46s %14.6g %-9s n=%d\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit, n)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(b.stdout, "  FAILED: %s\n", f)
	}
	line, _ := json.Marshal(runLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	fmt.Fprintf(b.stdout, "%s\n", line)
}

// run is the whole command: args are the command-line arguments, stdout
// receives the tables and the JSON result lines.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		rootFlag = fs.String("root", "", "repository root (default: found above the working directory)")
		workload = fs.String("workload", "", "run only this workload (default: all, in BENCHMARK.json order)")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs: the order of sampled-cold's sampling seeds, the sampling-plan and random-program probes")
		seconds  = fs.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1: traced run — servers run with -trace, probes run, per-layer metrics and out/trace.json")
		runs     = fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out      = fs.String("out", "", "directory for result.json, trace.json and logs/ (default: bench/out)")
		smoke    = fs.Bool("smoke", false, "tiny sizes (2 kernels, 4k/4k instructions): checks the plumbing, measures nothing")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	root := *rootFlag
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return err
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare A.json B.json")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
	}

	b := &bench{root: root, spec: spec, sz: defaultSizes, out: *out, build: filepath.Join(root, ".bench_build"),
		seconds: *seconds, trace: *trace != 0, stdout: stdout}
	if *smoke {
		b.sz = smokeSizes
	}
	if b.out == "" {
		b.out = filepath.Join(root, "bench", "out")
	}
	if b.seconds == 0 {
		b.seconds = float64(spec.RunSeconds)
	}
	names := spec.workloadNames()
	if *workload != "" {
		if !slices.Contains(names, *workload) {
			return fmt.Errorf("unknown workload %q (BENCHMARK.json names %s)", *workload, strings.Join(names, ", "))
		}
		names = []string{*workload}
	}
	text, err := os.ReadFile(filepath.Join(root, "expected_results.txt"))
	if err != nil {
		return err
	}
	if b.want, err = parseFig6(text); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(b.out, "logs")); err != nil {
		return err
	}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}

	b.server = filepath.Join(b.build, "bin", "sdoserver")
	buildDur, err := buildBinary(root, "./cmd/sdoserver", b.server)
	if err != nil {
		return err
	}
	sha, dirty := gitState(root)
	doc := resultDoc{Header: header{Time: time.Now().UTC().Format(time.RFC3339), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: sha, Dirty: dirty,
		Seed: *seed, Seconds: b.seconds, Sizes: b.sz, BuildS: buildDur.Seconds()}}
	h, _ := json.Marshal(doc.Header)
	fmt.Fprintf(stdout, "bench header %s\n", h)
	if dirty {
		fmt.Fprintln(os.Stderr, "bench: WARNING: the working tree has uncommitted changes; this result does not describe commit", sha)
	}

	// SIGINT/SIGTERM cancel the context; every request fails, every
	// workload's deferred close kills its nodes and removes its files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ok := true
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			rec, err := b.runOne(ctx, name, *seed+int64(i))
			if err != nil {
				return err
			}
			doc.Runs = append(doc.Runs, rec)
			b.printRun(rec)
			ok = ok && rec.Correct
		}
	}
	js, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.out, "result.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
