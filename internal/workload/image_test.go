package workload_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

func mustByName(t *testing.T, name string) workload.Workload {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// builtFresh is the image Build's init function produces, with no memo in
// the way.
func builtFresh(wl workload.Workload) *isa.Memory {
	_, init := wl.Build()
	return isa.NewImage(init)
}

// TestImageBuiltOncePerRegisteredKernel: a kernel served by ByName or All
// has its initial image built once per process, whichever copy of the
// Workload asks; later calls get copy-on-write clones that allocate a
// page directory, not 4 MB of pages; and what one caller writes the next
// never sees.
func TestImageBuiltOncePerRegisteredKernel(t *testing.T) {
	start := workload.ImageBuilds()
	_, first := mustByName(t, "mcf_r").Image()
	if got := workload.ImageBuilds() - start; got > 1 {
		t.Fatalf("first Image() built %d images", got)
	}
	want := builtFresh(mustByName(t, "mcf_r"))
	if !first.Equal(want) {
		t.Fatal("memoised image differs from a fresh build")
	}

	built := workload.ImageBuilds()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, second := mustByName(t, "mcf_r").Image()
	runtime.ReadMemStats(&after)
	_, third := workload.All()[0].Image() // mcf_r again, served by All
	if got := workload.ImageBuilds() - built; got != 0 {
		t.Errorf("%d more builds after the first: the memo is per registered kernel, not per Workload copy", got)
	}
	if alloc, image := after.TotalAlloc-before.TotalAlloc, uint64(want.Pages())*4096; alloc > image/16 {
		t.Errorf("a second Image() allocated %d bytes for a %d-byte image: pages are not shared", alloc, image)
	}

	// One cell scribbles over its copy; the copies handed out before and
	// after are untouched.
	const arc = 0x140_0000 // inside mcf_r's arc array
	first.Write64(arc, ^first.Read64(arc))
	first.Write8(0x7777_0000, 1) // and a page the image never had
	_, fourth := mustByName(t, "mcf_r").Image()
	for i, m := range []*isa.Memory{second, third, fourth} {
		if !m.Equal(want) {
			t.Errorf("copy %d sees another copy's writes", i+2)
		}
	}
	if first.Equal(want) {
		t.Error("the write did not land in the writer's own copy")
	}
}

// TestImageMemoIsByIdentity: only the Workload values All and ByName
// serve are memoised. Generated programs and hand-built Workloads — one
// deliberately named like a suite kernel — build their own image on
// every call and never see a suite image.
func TestImageMemoIsByIdentity(t *testing.T) {
	random := func(seed int64) workload.Workload {
		return workload.Workload{Name: "random", Build: func() (*isa.Program, func(*isa.Memory)) {
			return workload.RandomProgram(rand.New(rand.NewSource(seed)), workload.DefaultRandomOptions())
		}}
	}
	imposter := workload.Workload{Name: "mcf_r", Build: func() (*isa.Program, func(*isa.Memory)) {
		return isa.NewBuilder().Halt().MustBuild(), func(m *isa.Memory) { m.Write64(0x40, 7) }
	}}
	_, suiteImage := mustByName(t, "mcf_r").Image()

	images := map[string]*isa.Memory{}
	for name, wl := range map[string]workload.Workload{"random-1": random(1), "random-2": random(2), "imposter": imposter} {
		for call := 0; call < 2; call++ {
			before := workload.ImageBuilds()
			_, m := wl.Image()
			if got := workload.ImageBuilds() - before; got != 1 {
				t.Errorf("%s call %d: %d images built, want 1 (no memo)", name, call, got)
			}
			if !m.Equal(builtFresh(wl)) {
				t.Errorf("%s call %d: image differs from its own Build", name, call)
			}
			images[name] = m
		}
	}
	if images["random-1"].Equal(images["random-2"]) {
		t.Error("random programs with different seeds got the same image")
	}
	if images["imposter"].Equal(suiteImage) || images["imposter"].Read64(0x40) != 7 {
		t.Error("a hand-built Workload named mcf_r was served the suite's image")
	}
}

// TestCachedResubmissionBuildsNoImage: the submit / key / cache-hit path
// never builds a memory image. A service restarted on its persisted cache
// answers the whole sweep from it, and the process-wide build count does
// not move — program fingerprints hash the program text only.
func TestCachedResubmissionBuildsNoImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	warmup := uint64(1000)
	req := simsvc.SweepRequest{
		Workloads: []string{"leela_r", "xz_r"}, Variants: []string{"Unsafe", "Hybrid"},
		MaxInstrs: 2000, WarmupInstrs: &warmup,
	}
	sweep := func(s *simsvc.Service) {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("sweep timed out: %+v", j.Status())
		}
		if st := j.Status(); st.State != simsvc.JobDone {
			t.Fatalf("sweep ended %s: %+v", st.State, st)
		}
	}

	cold, err := simsvc.New(simsvc.Config{Workers: 2, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	before := workload.ImageBuilds()
	sweep(cold)
	if got := workload.ImageBuilds() - before; got > 2 {
		t.Errorf("the cold sweep built %d images for 2 kernels × 4 cells, want at most one per kernel", got)
	}
	if err := cold.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	warm, err := simsvc.New(simsvc.Config{Workers: 2, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Shutdown(context.Background())
	before = workload.ImageBuilds()
	sweep(warm)
	if got := workload.ImageBuilds() - before; got != 0 {
		t.Errorf("a fully cached resubmission built %d images, want 0", got)
	}
	if got, ok := warm.Registry().Value("sdo_runs_executed_total"); !ok || got != 0 {
		t.Errorf("the resubmission executed %v runs (registered: %v), want 0: all cached", got, ok)
	}
}
