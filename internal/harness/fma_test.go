package harness

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches a fused multiply-add or -subtract (arm64 FMADDD,
// FNMSUBD...; ppc64le FMADD, FNMSUB...) in -gcflags=-S output that the
// compiler attributes to a source line of this package.
var fusedOp = regexp.MustCompile(`\((?:[^()]*/)?internal/harness/[^/()]+\.go:\d+\)\s+FN?M(?:ADD|SUB)`)

// TestNoFusedMultiplyAdd: the Go spec lets a compiler fuse x*y + z into
// one instruction that rounds once, and on arm64 and ppc64le it does,
// where amd64 rounds the product first. A fused aggregate would print
// other digits than amd64's goldens, and a cache shared across machines
// would hold two results under one key. Each float formula here rounds
// its products by an explicit float64 conversion, which the spec says
// prevents fusion; this cross-compiles the package and fails on any fused
// op left in it. With a warm build cache the compiler's listing is
// replayed, so it takes a fraction of a second.
func TestNoFusedMultiplyAdd(t *testing.T) {
	for _, arch := range []string{"arm64", "ppc64le"} {
		cmd := exec.Command("go", "build", "-gcflags=-S", ".")
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, out)
		}
		listing := string(out)
		if !strings.Contains(listing, "internal/harness/export.go:") {
			t.Fatalf("GOARCH=%s: the compiler listed no assembly for export.go", arch)
		}
		for _, line := range strings.Split(listing, "\n") {
			if fusedOp.MatchString(line) {
				t.Errorf("GOARCH=%s fuses: %s", arch, strings.TrimSpace(line))
			}
		}
	}
}
