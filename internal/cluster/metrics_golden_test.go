package cluster

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/simsvc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_*.golden from the current /metrics output")

// metricsPreamble renders svc's /metrics document and returns its
// "# HELP" / "# TYPE" lines, sorted: the metric names, help strings and
// types operators and dashboards depend on, without the sample values.
func metricsPreamble(svc *simsvc.Service) string {
	var buf bytes.Buffer
	svc.Registry().WriteText(&buf)
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "# ") {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the /metrics surface — every name, help string
// and type — for a service with every optional subsystem off and one
// with every subsystem on (plus a cluster Node). The golden files were
// recorded before the metric declarations were collapsed onto the
// registry, so any drift in what operators see fails here.
func TestMetricsGolden(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		cfg  simsvc.Config
		node bool
	}{
		{name: "off", cfg: simsvc.Config{Workers: 1}},
		{name: "on", node: true, cfg: simsvc.Config{
			Workers:      1,
			CachePath:    filepath.Join(dir, "cache.json"),
			JournalPath:  filepath.Join(dir, "cache.json.jobs"),
			Peers:        []string{"http://127.0.0.1:1"},
			WorkStealing: true,
			Trace:        true,
			// No prober: the peer is a placeholder nothing listens on.
			PeerProbeInterval: -1,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := simsvc.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Shutdown(context.Background())
			if tc.node {
				members := []Member{{ID: "a", URL: "http://127.0.0.1:1"}}
				n, err := New(Config{Self: "a", Members: members, Service: svc, StealInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
			}
			got := metricsPreamble(svc)
			golden := filepath.Join("testdata", "metrics_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("/metrics HELP/TYPE lines drifted from %s:\n%s", golden, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the lines present in only one of want/got.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
