package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is a minimal Prometheus-client substitute (stdlib only, per
// the repo's no-new-dependencies rule): counters, histograms and
// function-backed counters and gauges, collected by a Registry that
// writes the text exposition format (version 0.0.4).

// metric is anything the registry can expose.
type metric interface {
	name() string
	write(w io.Writer)
	// value is the metric's current sample as write prints it (a
	// histogram's observation count).
	value() float64
}

// Registry holds metrics and renders them. Registration happens at
// service construction; Write/ServeHTTP may run concurrently with metric
// updates (all metrics are internally synchronised).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]bool)} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name()] {
		panic("obs: duplicate metric " + m.name())
	}
	r.byName[m.name()] = true
	r.metrics = append(r.metrics, m)
	sort.Slice(r.metrics, func(i, j int) bool { return r.metrics[i].name() < r.metrics[j].name() })
}

// WriteText renders every metric in the Prometheus text format, sorted by
// name so the output is stable.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		m.write(w)
	}
}

// Value reads one metric by the name /metrics exposes it under — what
// an operator's scrape would see — and reports whether it is registered.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.Lock()
	i := sort.Search(len(r.metrics), func(i int) bool { return r.metrics[i].name() >= name })
	var m metric
	if i < len(r.metrics) && r.metrics[i].name() == name {
		m = r.metrics[i]
	}
	r.mu.Unlock()
	if m == nil {
		return 0, false
	}
	return m.value(), true // outside r.mu: function-backed metrics take their owner's locks
}

// ServeHTTP implements the /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteText(w)
}

// header writes the HELP/TYPE preamble.
func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatValue renders floats the way Prometheus expects (integers bare).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// --- Counter ---

// Counter is a monotonically increasing metric.
type Counter struct {
	nm, help string
	v        atomic.Uint64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string   { return c.nm }
func (c *Counter) value() float64 { return float64(c.v.Load()) }
func (c *Counter) write(w io.Writer) {
	header(w, c.nm, "counter", c.help)
	fmt.Fprintf(w, "%s %d\n", c.nm, c.v.Load())
}

// --- Function-backed metrics ---

// funcMetric samples a callback at scrape time — the bridge for values
// that already live elsewhere (cache sizes, pool depths). Every gauge is
// one.
type funcMetric struct {
	nm, help, typ string
	fn            func() float64
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time. fn must be monotonic for the counter semantics to hold.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{nm: name, help: help, typ: "counter", fn: fn})
}

// NewGaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{nm: name, help: help, typ: "gauge", fn: fn})
}

func (f *funcMetric) name() string   { return f.nm }
func (f *funcMetric) value() float64 { return f.fn() }
func (f *funcMetric) write(w io.Writer) {
	header(w, f.nm, f.typ, f.help)
	fmt.Fprintf(w, "%s %s\n", f.nm, formatValue(f.fn()))
}

// --- Histogram ---

// Histogram accumulates observations into cumulative buckets, with the
// standard _bucket/_sum/_count exposition.
type Histogram struct {
	nm, help string
	bounds   []float64
	mu       sync.Mutex
	counts   []uint64
	sum      float64
	count    uint64
}

// DefaultLatencyBuckets suits sub-second to multi-minute simulation
// timings, in seconds.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30, 120}
}

// NewHistogram registers a histogram with the given upper bounds
// (ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{
		nm: name, help: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile (0..1) from the bucket counts: the
// upper bound of the first bucket whose cumulative count reaches
// q*count. Samples in the overflow (+Inf) bucket are attributed twice
// the last finite bound — a deliberate overestimate, since callers use
// quantiles to derive deadlines and an underestimate would kill healthy
// runs. With no observations (or no finite bounds) it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := q * float64(h.count)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		if float64(cum) >= need {
			return b
		}
	}
	return 2 * h.bounds[len(h.bounds)-1]
}

func (h *Histogram) name() string   { return h.nm }
func (h *Histogram) value() float64 { return float64(h.Count()) }
func (h *Histogram) write(w io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	header(w, h.nm, "histogram", h.help)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.nm, formatValue(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.nm, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", h.nm, h.count)
}
