package harness

import (
	"flag"
	"reflect"
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

// TestRequestFlags pins the one flag binder: every JSON field of Request
// has exactly one flag, no flag sets two fields, an empty command line is
// the zero Request (which resolves to the default grid), and -warmup 0 is
// an explicit zero rather than "unset".
func TestRequestFlags(t *testing.T) {
	bind := func(args ...string) Request {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		req := RequestFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return req()
	}
	var names []string
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RequestFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })

	typ := reflect.TypeOf(Request{})
	setBy := make(map[string][]string) // field → the flags that set it
	for _, name := range names {
		// "1" parses as every flag's type: a bool, a number, a name.
		v := reflect.ValueOf(bind("-" + name + "=1"))
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			if !v.Field(i).IsZero() {
				fields = append(fields, typ.Field(i).Name)
			}
		}
		if len(fields) != 1 {
			t.Errorf("-%s sets fields %v, want exactly one", name, fields)
		}
		for _, f := range fields {
			setBy[f] = append(setBy[f], name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Tag.Get("json") == "" {
			continue
		}
		if len(setBy[f.Name]) != 1 {
			t.Errorf("field %s is set by flags %v, want exactly one", f.Name, setBy[f.Name])
		}
	}

	req := bind()
	if !reflect.DeepEqual(req, Request{}) {
		t.Errorf("no flags gave %+v, want the zero Request", req)
	}
	_, specs, err := req.Resolve()
	if err != nil || !reflect.DeepEqual(specs, DefaultOptions().Specs()) {
		t.Errorf("the zero Request resolved to %d specs (%v), want DefaultOptions().Specs()", len(specs), err)
	}
	if w := bind("-warmup", "0").WarmupInstrs; w == nil || *w != 0 {
		t.Errorf("-warmup 0 gave WarmupInstrs %v, want an explicit zero", w)
	}
	if got := bind("-workloads", " mcf_r, x264_r,").Workloads; !reflect.DeepEqual(got, []string{"mcf_r", "x264_r"}) {
		t.Errorf("-workloads split to %q", got)
	}
	// Workload names are matched exactly, so they keep their case; scheme
	// and model names answer to any case.
	mixed := bind("-workloads", "cactuBSSN_r", "-variants", "HYBRID", "-models", "Futuristic")
	if _, specs, err := mixed.Resolve(); err != nil || len(specs) != 1 || specs[0].Workload != "cactuBSSN_r" {
		t.Errorf("-workloads cactuBSSN_r -variants HYBRID -models Futuristic resolved to %d specs (%v), want the one cactuBSSN_r cell", len(specs), err)
	}
}
