package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Operations.")
	r.NewGaugeFunc("test_depth", "Depth.", func() float64 { return 2.5 })
	r.NewGaugeFunc("test_live", "Live value.", func() float64 { return 7 })
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1})

	c.Add(3)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# HELP test_ops_total Operations.",
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		"# TYPE test_depth gauge",
		"test_depth 2.5",
		"test_live 7",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// Output must be sorted by metric name (stable scrapes).
	iDepth := strings.Index(body, "# HELP test_depth")
	iOps := strings.Index(body, "# HELP test_ops_total")
	if iDepth > iOps {
		t.Fatal("metrics not sorted by name")
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("b_seconds", "x", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), `b_seconds_bucket{le="1"} 1`) {
		t.Fatalf("boundary observation not cumulative in le=\"1\":\n%s", sb.String())
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.NewCounter("dup_total", "y")
}
