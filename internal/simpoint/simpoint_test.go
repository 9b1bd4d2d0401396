package simpoint

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// profileFor builds a workload's BBV profile over [warmup, warmup+window).
func profileFor(t *testing.T, name string, warmup, window uint64, cfg Config) *Profile {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, data := wl.Image()
	p, err := ProfileProgram(prog, data, warmup, window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileShape(t *testing.T) {
	const warmup, window, interval = 2000, 20_000, 5000
	p := profileFor(t, "mcf_r", warmup, window, Config{IntervalInstrs: interval})
	if p.WarmupInstrs != warmup || p.WindowInstrs != window {
		t.Fatalf("window placement: %+v", p)
	}
	if p.ProfiledInstrs != warmup+window {
		t.Errorf("profiled %d instrs, want %d", p.ProfiledInstrs, warmup+window)
	}
	if len(p.Intervals) != 4 {
		t.Fatalf("%d intervals, want 4", len(p.Intervals))
	}
	var total uint64
	next := uint64(warmup)
	for i, iv := range p.Intervals {
		if iv.Start != next {
			t.Errorf("interval %d starts at %d, want %d", i, iv.Start, next)
		}
		if iv.Len == 0 || iv.Len > interval {
			t.Errorf("interval %d has length %d", i, iv.Len)
		}
		if len(iv.Vec) != vecDim {
			t.Errorf("interval %d vector has %d dims, want %d", i, len(iv.Vec), vecDim)
		}
		next += iv.Len
		total += iv.Len
	}
	if total != window {
		t.Errorf("interval lengths sum to %d, want %d", total, window)
	}
	if p.Blocks == 0 {
		t.Error("no basic blocks observed")
	}
}

func TestProfileErrors(t *testing.T) {
	wl, err := workload.ByName("mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	prog, data := wl.Image()
	if _, err := ProfileProgram(prog, data.Clone(), 1000, 0, Config{}); err == nil {
		t.Error("zero window accepted")
	}
	// Warmup far beyond the program's halt point.
	if _, err := ProfileProgram(prog, data, 1<<40, 1000, Config{}); err == nil {
		t.Error("warmup beyond halt accepted")
	}
}

func TestProfileAndPlanDeterminism(t *testing.T) {
	cfg := Config{IntervalInstrs: 2000, MaxK: 8, Seed: 7}
	a := profileFor(t, "gcc_r", 5000, 30_000, cfg)
	b := profileFor(t, "gcc_r", 5000, 30_000, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (program, window, config) produced different profiles")
	}
	pa, err := a.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("same profile clustered to different plans")
	}
	// A different seed changes the projection, so the vectors differ.
	c := profileFor(t, "gcc_r", 5000, 30_000, Config{IntervalInstrs: 2000, MaxK: 8, Seed: 8})
	if reflect.DeepEqual(a.Intervals[0].Vec, c.Intervals[0].Vec) {
		t.Error("reseeded projection produced identical vectors")
	}
}

func TestPlanInvariants(t *testing.T) {
	p := profileFor(t, "xz_r", 5000, 40_000, Config{IntervalInstrs: 2000})
	plan, err := p.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if plan.K < 1 || plan.K > plan.Config.MaxK {
		t.Fatalf("k=%d outside [1, %d]", plan.K, plan.Config.MaxK)
	}
	if len(plan.Reps) == 0 || len(plan.Reps) > plan.K {
		t.Fatalf("%d representatives for k=%d", len(plan.Reps), plan.K)
	}
	var wsum float64
	last := int64(-1)
	for _, r := range plan.Reps {
		wsum += r.Weight
		if int64(r.Start) <= last {
			t.Errorf("representatives not sorted by start: %+v", plan.Reps)
		}
		last = int64(r.Start)
		if r.Len == 0 || r.Weight <= 0 || r.Weight > 1 {
			t.Errorf("degenerate representative %+v", r)
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", wsum)
	}
	if s := plan.SampledInstrs(); s == 0 || s > plan.WindowInstrs {
		t.Errorf("sampled %d of %d instrs", s, plan.WindowInstrs)
	}
	if bs := plan.Boundaries(); len(bs) != len(plan.Reps) {
		t.Errorf("%d boundaries for %d reps", len(bs), len(plan.Reps))
	}
}

func TestSingleIntervalPlanIsWholeWindow(t *testing.T) {
	// Window no larger than one interval: the plan must degenerate to a
	// single representative of weight 1 covering the whole window.
	p := profileFor(t, "mcf_r", 1000, 4000, Config{IntervalInstrs: 5000})
	plan, err := p.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 1 || len(plan.Reps) != 1 {
		t.Fatalf("k=%d reps=%d, want 1/1", plan.K, len(plan.Reps))
	}
	r := plan.Reps[0]
	if r.Start != 1000 || r.Len != 4000 || math.Abs(r.Weight-1) > 1e-12 {
		t.Fatalf("representative %+v, want the whole window at weight 1", r)
	}
}

func TestKmeansSeparatesPhases(t *testing.T) {
	// Two far-apart groups of near-duplicate vectors: BIC must choose
	// k=2 (splitting noise within a group gains nothing) and the
	// assignment must match the groups.
	var vecs [][]float64
	var weights []uint64
	for i := 0; i < 6; i++ {
		v := make([]float64, 4)
		v[0] = 1 + float64(i)*1e-6
		vecs = append(vecs, v)
		weights = append(weights, 1000)
	}
	for i := 0; i < 6; i++ {
		v := make([]float64, 4)
		v[1] = 5 + float64(i)*1e-6
		vecs = append(vecs, v)
		weights = append(weights, 1000)
	}
	cl := chooseK(vecs, weights, 8, 1)
	if cl.k != 2 {
		t.Fatalf("chooseK picked k=%d, want 2", cl.k)
	}
	for i := 1; i < 6; i++ {
		if cl.assign[i] != cl.assign[0] {
			t.Errorf("group A split across clusters: %v", cl.assign)
		}
		if cl.assign[6+i] != cl.assign[6] {
			t.Errorf("group B split across clusters: %v", cl.assign)
		}
	}
	if cl.assign[0] == cl.assign[6] {
		t.Errorf("groups merged: %v", cl.assign)
	}
	// Determinism: the same inputs cluster identically.
	again := chooseK(vecs, weights, 8, 1)
	if !reflect.DeepEqual(cl, again) {
		t.Error("chooseK is not deterministic")
	}
}

func TestKmeansFewerDistinctVectorsThanK(t *testing.T) {
	vecs := [][]float64{{1, 0}, {1, 0}, {1, 0}, {2, 0}}
	weights := []uint64{10, 10, 10, 10}
	cl := kmeans(vecs, weights, 4, 1)
	if cl.k > 2 {
		t.Errorf("k-means kept %d centers for 2 distinct vectors", cl.k)
	}
}
