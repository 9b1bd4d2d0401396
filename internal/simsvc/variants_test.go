package simsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestHTTPVariants checks GET /variants lists every registered scheme —
// the Table II rows and the registered additions — with the metadata
// sdoctl renders (name, aliases, description).
func TestHTTPVariants(t *testing.T) {
	_, ts := httpService(t)

	var got []VariantInfo
	if err := json.Unmarshal(get(t, ts.URL+"/variants", 200), &got); err != nil {
		t.Fatalf("/variants is not JSON: %v", err)
	}
	if want := len(core.Registered()); len(got) != want {
		t.Fatalf("/variants listed %d schemes, want %d", len(got), want)
	}
	byName := make(map[string]VariantInfo, len(got))
	for _, v := range got {
		if v.Description == "" {
			t.Errorf("scheme %q has no description", v.Name)
		}
		byName[v.Name] = v
	}
	for _, want := range []string{"Unsafe", "STT{ld}", "Hybrid", "SafeSpec", "SpecBox"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("/variants missing scheme %q", want)
		}
	}
	if ss := byName["SafeSpec"]; !contains(ss.Aliases, "safespec") {
		t.Errorf("SafeSpec aliases = %v, want to include %q", ss.Aliases, "safespec")
	}
	if sb := byName["SpecBox"]; sb.TableII {
		t.Errorf("SpecBox marked as a Table II row; it is a registered addition")
	}
	if h := byName["Hybrid"]; !h.SDO || !h.TableII {
		t.Errorf("Hybrid flags = sdo:%t table2:%t, want both true", h.SDO, h.TableII)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestHTTPUnknownVariant checks a sweep naming an unknown scheme is
// rejected with 400 and an error body that lists every valid name, so
// the caller can self-correct without consulting /variants.
func TestHTTPUnknownVariant(t *testing.T) {
	_, ts := httpService(t)

	resp, err := http.Post(ts.URL+"/sweeps", "application/json",
		strings.NewReader(`{"workloads":["exchange2_r"],"variants":["nope"],"max_instrs":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown variant: status %d, want 400: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"nope"`, "Unsafe", "STT{ld}", "Hybrid", "Perfect", "SafeSpec", "SpecBox"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("400 body missing %q:\n%s", want, body)
		}
	}
}

// TestHTTPShadowSchemeSweep runs SafeSpec and SpecBox end to end over
// the HTTP API: the registry additions are sweepable exactly like the
// Table II rows, cache included.
func TestHTTPShadowSchemeSweep(t *testing.T) {
	_, ts := httpService(t)

	warmup := uint64(1000)
	req := harness.Request{
		Workloads:    []string{"exchange2_r"},
		Variants:     []string{"safespec", "specbox"},
		Models:       []string{"spectre"},
		MaxInstrs:    2000,
		WarmupInstrs: &warmup,
	}
	st := postSweep(t, ts, req)
	if st.Total != 2 {
		t.Fatalf("shadow sweep has %d cells, want 2", st.Total)
	}
	exp := get(t, fmt.Sprintf("%s/sweeps/%s/export", ts.URL, st.ID), 200)
	var doc struct {
		Runs []struct {
			Variant   string `json:"variant"`
			Cycles    uint64 `json:"cycles"`
			Committed uint64 `json:"committed"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(exp, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if len(doc.Runs) != 2 {
		t.Fatalf("export has %d runs, want 2", len(doc.Runs))
	}
	seen := map[string]bool{}
	for _, r := range doc.Runs {
		seen[r.Variant] = true
		if r.Cycles == 0 || r.Committed == 0 {
			t.Errorf("run %s: empty counters %+v", r.Variant, r)
		}
	}
	if !seen["SafeSpec"] || !seen["SpecBox"] {
		t.Fatalf("export variants = %v, want SafeSpec and SpecBox", seen)
	}

	// Resubmitting hits the v5 cache (scheme name keyed).
	st2 := postSweep(t, ts, req)
	var done Status
	json.Unmarshal(get(t, fmt.Sprintf("%s/sweeps/%s", ts.URL, st2.ID), 200), &done)
	get(t, fmt.Sprintf("%s/sweeps/%s/export", ts.URL, st2.ID), 200)
	json.Unmarshal(get(t, fmt.Sprintf("%s/sweeps/%s", ts.URL, st2.ID), 200), &done)
	if done.Cached != 2 {
		t.Fatalf("resubmitted shadow sweep: %d cells cached, want 2", done.Cached)
	}
}
