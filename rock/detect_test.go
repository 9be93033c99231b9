package rock

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/workload"
)

// logisticsReport cleans a freshly generated Logistics dataset with the
// shipped options, assembled as applications do (matchers, correlation
// models, knowledge graph, entity refs, rules and Γ).
func logisticsReport(t *testing.T, n int, seed int64) *Report {
	t.Helper()
	ds := workload.Logistics(workload.Config{N: n, Seed: seed})
	p := NewPipelineWith(ds.DB, DefaultOptions())
	for _, m := range []string{"M_ER", "M_addr", "M_SKU"} {
		p.RegisterMatcher(m, 0.82)
	}
	p.TrainCorrelationModels()
	if ds.Graph != nil {
		p.RegisterGraph(ds.Graph, 0.6)
	}
	refs := make([]string, 0, len(ds.EIDRefs))
	for ref := range ds.EIDRefs {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	for _, ref := range refs {
		rel, attr, _ := strings.Cut(ref, ".")
		p.DeclareEntityRef(rel, attr)
	}
	for _, r := range ds.Rules {
		if _, err := p.AddRule(r.String()); err != nil {
			t.Fatalf("rule %s: %v", r.ID, err)
		}
	}
	ds.Gamma.ForEachCell(func(rel, eid, attr string, v data.Value) {
		if err := p.Validate(rel, eid, attr, v); err != nil {
			t.Fatal(err)
		}
	})
	rep, err := p.Clean()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// detectedKey renders an error's evidence as a dedup key: its cells in
// sorted order, or its duplicate pair.
func detectedKey(e DetectedError) string {
	if e.Task == "ER" {
		return "dup:" + e.DupEIDs[0] + "|" + e.DupEIDs[1]
	}
	ks := make([]string, len(e.Cells))
	for i, c := range e.Cells {
		ks[i] = c.String()
	}
	sort.Strings(ks)
	return "cell:" + strings.Join(ks, ";")
}

// TestCleanErrorsDeterministic checks that two identical cleans report the
// same errors, rule IDs included, and that no evidence is reported twice
// (a culprit the rules also flag as a one-cell error counts once).
func TestCleanErrorsDeterministic(t *testing.T) {
	render := func(rep *Report) []string {
		out := make([]string, len(rep.Errors))
		for i, e := range rep.Errors {
			out[i] = fmt.Sprintf("%s %s %s", detectedKey(e), e.RuleID, e.Task)
		}
		return out
	}
	a := logisticsReport(t, 300, 1)
	seen := map[string]bool{}
	for _, e := range a.Errors {
		k := detectedKey(e)
		if seen[k] {
			t.Errorf("error %s reported twice", k)
		}
		seen[k] = true
	}
	want := render(a)
	for run := 0; run < 2; run++ {
		got := render(logisticsReport(t, 300, 1))
		if len(got) != len(want) {
			t.Fatalf("run %d: %d errors, first run %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: error %d is %q, first run %q", run, i, got[i], want[i])
			}
		}
	}
}
