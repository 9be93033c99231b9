package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// assemble builds a pipeline over a generated dataset the way an
// application does, through rock's public functions only: the three
// similarity matchers at 0.82 (as Dataset.BuildEnv registers them),
// trained correlation models, the knowledge graph, entity references,
// the dataset's rules and its seeded ground truth Γ.
func assemble(ds *workload.Dataset, opts rock.Options) (*rock.Pipeline, error) {
	p := rock.NewPipelineWith(ds.DB, opts)
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
		rel, attr, ok := strings.Cut(ref, ".")
		if !ok {
			return nil, fmt.Errorf("dataset %s: malformed entity ref %q", ds.Name, ref)
		}
		p.DeclareEntityRef(rel, attr)
	}
	for _, r := range ds.Rules {
		if _, err := p.AddRule(r.String()); err != nil {
			return nil, fmt.Errorf("dataset %s rule %s: %w", ds.Name, r.ID, err)
		}
	}
	var verr error
	ds.Gamma.ForEachCell(func(rel, eid, attr string, v data.Value) {
		if err := p.Validate(rel, eid, attr, v); err != nil && verr == nil {
			verr = fmt.Errorf("dataset %s: validate %s.%s of %s: %w", ds.Name, rel, attr, eid, err)
		}
	})
	return p, verr
}

// scoreClean scores a batch clean's corrections and identified entities
// against the generator's gold (paper Fig. 4(i) scoring: CR, MI and ER).
func scoreClean(gold *quality.Gold, rep *rock.Report) quality.PRF {
	c := quality.NewCorrections()
	raw := make(map[string]data.Value, len(rep.Corrections))
	for _, x := range rep.Corrections {
		c.AddCell(x.Cell.Rel, x.Cell.TID, x.Cell.Attr, x.New)
		raw[quality.CellKey(x.Cell.Rel, x.Cell.TID, x.Cell.Attr)] = x.Old
	}
	for _, class := range rep.MergedEntities {
		for i := range class {
			for j := i + 1; j < len(class); j++ {
				c.AddMerge(class[i], class[j])
			}
		}
	}
	return quality.ScoreCorrection(gold, c, func(key string) (data.Value, bool) {
		v, ok := raw[key]
		return v, ok
	}).Overall()
}

// cellCheck is one injected error and the value cleaning must give it.
type cellCheck struct {
	rel  string
	tid  int
	attr string
	want data.Value
}

// checkCells counts the injected errors the cleaned database holds at
// their gold value (tp) and those it does not (fn), reporting each miss.
func checkCells(db *data.Database, cells []cellCheck, fail func(string, ...any)) (tp, fn int) {
	for _, c := range cells {
		r := db.Rel(c.rel)
		var got data.Value
		ok := false
		if r != nil {
			got, ok = r.Value(c.tid, c.attr)
		}
		if ok && got.Equal(c.want) {
			tp++
			continue
		}
		fn++
		fail("%s[%d].%s = %v after cleaning, want %v", c.rel, c.tid, c.attr, got, c.want)
	}
	return tp, fn
}
