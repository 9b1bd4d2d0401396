package simsvc

import (
	"bytes"
	"strings"
	"testing"
)

// metric reads one /metrics sample of s by the name operators see.
// Asking for a metric the service's configuration does not register
// fails the test.
func metric(t testing.TB, s *Service, name string) float64 {
	t.Helper()
	v, ok := s.Registry().Value(name)
	if !ok {
		t.Fatalf("metric %s is not registered", name)
	}
	return v
}

// metricLines renders the /metrics samples of s whose name starts with
// prefix, for failure messages.
func metricLines(s *Service, prefix string) string {
	var buf bytes.Buffer
	s.Registry().WriteText(&buf)
	var out []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, prefix) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "; ")
}
