package harness

import (
	"testing"

	"repro/internal/pipeline"
)

// TestRequestResolve pins how a request's names and zero values resolve,
// for the CLI and the service alike.
func TestRequestResolve(t *testing.T) {
	opt, specs, err := Request{Workloads: []string{"mcf_r"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	if opt.MaxInstrs != def.MaxInstrs || opt.WarmupInstrs != def.WarmupInstrs || len(specs) != len(opt.Cells()) {
		t.Errorf("defaults: max %d, warmup %d, %d cells; want %d, %d, %d",
			opt.MaxInstrs, opt.WarmupInstrs, len(specs), def.MaxInstrs, def.WarmupInstrs, len(opt.Cells()))
	}
	zero := uint64(0)
	if opt, _, err := (Request{WarmupInstrs: &zero}).Resolve(); err != nil || opt.WarmupInstrs != 0 {
		t.Errorf("explicit zero warmup resolved to %d (%v)", opt.WarmupInstrs, err)
	}

	// Models: the String spelling or its lower case, nothing else.
	for name, want := range map[string]pipeline.AttackModel{
		"Spectre": pipeline.Spectre, "spectre": pipeline.Spectre,
		"Futuristic": pipeline.Futuristic, "futuristic": pipeline.Futuristic,
	} {
		opt, _, err := Request{Models: []string{name}}.Resolve()
		if err != nil || len(opt.Models) != 1 || opt.Models[0] != want {
			t.Errorf("model %q resolved to %v (%v), want %v", name, opt.Models, err, want)
		}
	}
	for _, req := range []Request{
		{Models: []string{"SPECTRE"}},
		{Models: []string{"meltdown"}},
		{Workloads: []string{"nope_r"}},
		{Variants: []string{"turbo"}},
		{WarmupMode: "warp"},
		{SimMode: "sampled", Ablations: true},
	} {
		if _, _, err := req.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) succeeded, want an error", req)
		}
	}

	// An ablation study: every cell has its own key.
	_, specs, err = Request{Workloads: []string{"mcf_r", "xz_r"}, Variants: []string{"stt"}, Ablations: true}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[Key]bool)
	for _, s := range specs {
		keys[s.Key()] = true
	}
	if want := 2 * 2 * (1 + len(AblationRows())); len(specs) != want || len(keys) != want {
		t.Errorf("%d ablation cells with %d distinct keys, want %d of each", len(specs), len(keys), want)
	}
}
