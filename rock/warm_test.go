package rock

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/workload"
)

// warmN puts the Scale relation above exec's 4096-tuple intern gate, so
// deltas run on the interned columns the pipeline keeps warm.
const warmN = 6000

// deltaOp is one change recorded through a Delta: an insert, or a cell
// update of an existing tuple.
type deltaOp struct {
	eid    string
	values []Value // insert when non-nil
	tid    int
	attr   string
	v      Value
}

func (op deltaOp) apply(t *testing.T, d *Delta) {
	t.Helper()
	if op.values != nil {
		if d.Insert("Events", op.eid, op.values...) == nil {
			t.Fatalf("insert %s refused", op.eid)
		}
		return
	}
	if !d.Update("Events", op.tid, op.attr, op.v) {
		t.Fatalf("update of %d.%s refused", op.tid, op.attr)
	}
}

// scalePipeline assembles the Scale rules over db, with the master-data
// validation every pipeline of the test shares.
func scalePipeline(t *testing.T, db *Database, workers int, master CellRef, masterV Value) *Pipeline {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	p := NewPipelineWith(db, opts)
	p.MustAddRule("Events(t) ^ Events(s) ^ t.sku = s.sku -> t.mfg = s.mfg")
	p.MustAddRule("Events(t) ^ t.region = 'R7' ^ null(t.code) -> t.code = 'C7'")
	// Joins on mfg, the column the first rule's fixes write: a warm
	// column that missed a materialised fix would lose pairs here.
	p.MustAddRule("Events(t) ^ Events(s) ^ t.mfg = s.mfg ^ t.region = s.region -> t.code = s.code")
	eid := db.Rel("Events").Get(master.TID).EID
	if err := p.Validate("Events", eid, master.Attr, masterV); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWarmDeltasMatchColdPipeline: one pipeline runs a batch clean and
// then a sequence of deltas on its warm executor — inserts, an update of
// the join key, updates that null cells, and an insert into an entity
// class carrying a validated cell. After every delta, its corrections,
// its fix set and the materialised data must equal those of a cold
// pipeline (fresh executor, columns built from scratch) rebuilt on the
// pre-delta data and fed the same delta; the full-scan materialisation
// must find nothing left to write; and the warm delta must build no
// column.
func TestWarmDeltasMatchColdPipeline(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ds := workload.Scale(workload.Config{N: warmN, Seed: 3})
			events := ds.DB.Rel("Events")
			// Master data: the first tuple's manufacturer, validated as is.
			master := CellRef{Rel: "Events", TID: events.Tuples[0].TID, Attr: "mfg"}
			masterV := events.Tuples[0].Values[1]
			if masterV.IsNull() {
				t.Fatal("fixture: the first Scale tuple must carry a manufacturer")
			}
			warm := scalePipeline(t, ds.DB, workers, master, masterV)
			if _, err := warm.Clean(); err != nil {
				t.Fatal(err)
			}
			// groupOf returns a tuple of an existing sku group and its mfg.
			groupOf := func(i int) (sku, mfg Value) {
				tp := events.Tuples[i]
				return tp.Values[0], tp.Values[1]
			}
			next := events.NextTID()
			inserted := func(n int) int { next += n; return next - n }
			var deltas [][]deltaOp
			// 1. Inserts into existing groups: null manufacturers and null
			// codes in region R7 for the two rules to repair.
			var ops []deltaOp
			for i := 0; i < 16; i++ {
				sku, mfg := groupOf(97 * (i + 1))
				code := S(fmt.Sprintf("C%d", i%10))
				region := S(fmt.Sprintf("R%d", i%10))
				switch {
				case i == 0:
					// Its imputed mfg is the only route to region Rsolo's
					// code for the probe of delta 7.
					mfg, region, code = Null(TString), S("Rsolo"), S("Csolo")
				case i%4 == 0:
					mfg = Null(TString)
				case i%8 == 1:
					region, code = S("R7"), Null(TString)
				}
				ops = append(ops, deltaOp{eid: fmt.Sprintf("n%d", i), values: []Value{sku, mfg, region, code}})
			}
			inserted(len(ops))
			deltas = append(deltas, ops)
			// 2. A tuple under a fresh sku: no group, nothing to repair.
			lone := inserted(1)
			deltas = append(deltas, []deltaOp{{eid: "lone", values: []Value{S("K-fresh"), Null(TString), S("R1"), S("C1")}}})
			// 3. Update of the join key: the lone tuple joins a group and
			// inherits its manufacturer.
			sku, _ := groupOf(1234)
			deltas = append(deltas, []deltaOp{{tid: lone, attr: "sku", v: sku}})
			// 4. Updates that null cells the rules re-derive.
			var r7 int
			for _, tp := range events.Tuples {
				if tp.Values[2].Equal(S("R7")) && tp.TID > 100 {
					r7 = tp.TID
					break
				}
			}
			deltas = append(deltas, []deltaOp{
				{tid: events.Tuples[500].TID, attr: "mfg", v: Null(TString)},
				{tid: r7, attr: "code", v: Null(TString)},
			})
			// 5. An insert into the validated entity class: the class's
			// master manufacturer overrides the arriving null.
			masterSku := events.Get(master.TID).Values[0]
			deltas = append(deltas, []deltaOp{{eid: events.Get(master.TID).EID,
				values: []Value{masterSku, Null(TString), S("R2"), S("C2")}}})
			// 6. Inserts and a join-key update together.
			sku2, mfg2 := groupOf(4321)
			deltas = append(deltas, []deltaOp{
				{eid: "m1", values: []Value{sku2, Null(TString), S("R3"), S("C3")}},
				{eid: "m2", values: []Value{sku2, mfg2, S("R7"), Null(TString)}},
				{tid: events.Tuples[2000].TID, attr: "sku", v: sku2},
			})
			// 7. A probe sharing only the manufacturer materialised into n0
			// by delta 1 (and n0's region): its code comes through the mfg
			// join against n0's refreshed column entry alone.
			_, mfg97 := groupOf(97)
			deltas = append(deltas, []deltaOp{{eid: "probe", values: []Value{S("K-probe"), mfg97, S("Rsolo"), Null(TString)}}})

			for k, ops := range deltas {
				cold := scalePipeline(t, ds.DB.Clone(), workers, master, masterV)
				dw, dc := warm.NewDelta(), cold.NewDelta()
				for _, op := range ops {
					op.apply(t, dw)
					op.apply(t, dc)
				}
				wrep, weng, err := dw.cleanIncremental(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				crep, ceng, err := dc.cleanIncremental(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(wrep.Corrections) == 0 && k != 1 {
					t.Errorf("delta %d: no corrections — the delta no longer exercises a repair", k+1)
				}
				if g, w := correctionsString(wrep.Corrections), correctionsString(crep.Corrections); g != w {
					t.Fatalf("delta %d: warm corrections diverge from cold:\nwarm %s\ncold %s", k+1, g, w)
				}
				if g, w := weng.Truth().Snapshot(), ceng.Truth().Snapshot(); g != w {
					t.Fatalf("delta %d: warm fix set diverges from cold:\nwarm %s\ncold %s", k+1, g, w)
				}
				if g, w := dbString(warm.DB()), dbString(cold.DB()); g != w {
					t.Fatalf("delta %d: warm and cold materialised different data", k+1)
				}
				assertFullyMaterialized(t, k+1, warm.DB(), weng)
				if n := wrep.Metrics.Counters["exec.columns.built"]; n != 0 {
					t.Errorf("delta %d: warm executor built %d columns", k+1, n)
				}
				if crep.Metrics.Counters["exec.columns.built"] == 0 {
					t.Errorf("delta %d: cold executor built no columns — the intern gate is not crossed", k+1)
				}
			}
		})
	}
}

func correctionsString(cs []Correction) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "%s:%s→%s(%t);", c.Cell.String(), c.Old.Key(), c.New.Key(), c.IsNew)
	}
	return b.String()
}

func dbString(db *Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		for _, tp := range db.Rel(name).Tuples {
			fmt.Fprintf(&b, "%s/%d/%s:", name, tp.TID, tp.EID)
			for _, v := range tp.Values {
				b.WriteString(v.Key())
				b.WriteByte(',')
			}
		}
	}
	return b.String()
}

// assertFullyMaterialized is the full-scan materialisation oracle: after
// the diff-driven Materialize, no cell of the database may still differ
// from the engine's validated value.
func assertFullyMaterialized(t *testing.T, k int, db *Database, eng *chase.Engine) {
	t.Helper()
	u := eng.Truth()
	for _, name := range db.Names() {
		rel := db.Rel(name)
		for _, tp := range rel.Tuples {
			for i, a := range rel.Schema.Attrs {
				if v, ok := u.Cell(name, tp.EID, a.Name); ok && !v.Equal(tp.Values[i]) {
					t.Fatalf("delta %d: %s.%d.%s left unmaterialised: raw %v, validated %v", k, name, tp.TID, a.Name, tp.Values[i], v)
				}
			}
		}
	}
}

// TestIncrementalCostFlatInDataSize is the delta-proportionality
// acceptance, asserted on counters rather than time: the same 16-tuple
// deltas on warm Scale pipelines of 2×10⁴ and 2×10⁵ tuples must make
// identical numbers of posting probes and valuations, and build no
// interned column. The two datasets share their first 2×10⁴ tuples
// (one seeded generator), and the deltas only touch sku groups there.
func TestIncrementalCostFlatInDataSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2×10⁵-tuple pipeline")
	}
	type cost struct{ probes, valuations uint64 }
	run := func(n int) []cost {
		ds := workload.Scale(workload.Config{N: n, Seed: 5})
		p := NewPipeline(ds.DB)
		for _, r := range ds.Rules {
			p.MustAddRule(r.String())
		}
		if _, err := p.Clean(); err != nil {
			t.Fatal(err)
		}
		events := ds.DB.Rel("Events")
		var out []cost
		for k := 0; k < 3; k++ {
			d := p.NewDelta()
			for i := 0; i < 16; i++ {
				g := events.Tuples[(k*16+i)*97]
				mfg, region, code := g.Values[1], S(fmt.Sprintf("R%d", i%10)), S(fmt.Sprintf("C%d", i%10))
				switch {
				case i%4 == 0:
					mfg = Null(TString)
				case i%8 == 1:
					region, code = S("R7"), Null(TString)
				}
				d.Insert("Events", fmt.Sprintf("d%d-%d", k, i), g.Values[0], mfg, region, code)
			}
			rep, err := d.CleanIncrementalReport(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			c := rep.Metrics.Counters
			if c["exec.columns.built"] != 0 {
				t.Fatalf("n=%d delta %d: warm delta built %d columns", n, k, c["exec.columns.built"])
			}
			if len(rep.Corrections) == 0 {
				t.Fatalf("n=%d delta %d: no corrections", n, k)
			}
			out = append(out, cost{c["exec.vec.join_probes"], c["chase.valuations"]})
		}
		return out
	}
	small, large := run(20_000), run(200_000)
	for k := range small {
		if small[k] != large[k] {
			t.Errorf("delta %d: probes/valuations %+v at 2×10⁴ vs %+v at 2×10⁵ — cost grows with |D|", k, small[k], large[k])
		}
		if small[k].probes == 0 {
			t.Errorf("delta %d: no posting probes — the delta no longer reaches the posting join", k)
		}
	}
}

// TestWarmStateFollowsEveryDelta: a change recorded through a Delta must
// reach the pipeline's warm columns even when that Delta is not the one
// being cleaned — it was only detected on, dropped without a clean, or
// is cleaned after a later Delta. In each case a tuple is moved to a
// fresh sku, and a later insert under that sku with a null manufacturer
// can be repaired only through the moved tuple's current column entry.
// The warm clean must match a cold pipeline over the same data.
func TestWarmStateFollowsEveryDelta(t *testing.T) {
	cases := []struct {
		name string
		// move records the sku update in a Delta and returns the Delta to
		// clean afterwards (nil: none).
		move func(t *testing.T, p *Pipeline, op deltaOp) *Delta
	}{
		{"detect-only", func(t *testing.T, p *Pipeline, op deltaOp) *Delta {
			d := p.NewDelta()
			op.apply(t, d)
			if _, err := d.DetectIncremental(); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"dropped", func(t *testing.T, p *Pipeline, op deltaOp) *Delta {
			op.apply(t, p.NewDelta())
			return nil
		}},
		{"cleaned-after-later", func(t *testing.T, p *Pipeline, op deltaOp) *Delta {
			d := p.NewDelta()
			op.apply(t, d)
			return d
		}},
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				ds := workload.Scale(workload.Config{N: warmN, Seed: 3})
				events := ds.DB.Rel("Events")
				master := CellRef{Rel: "Events", TID: events.Tuples[0].TID, Attr: "mfg"}
				masterV := events.Tuples[0].Values[1]
				warm := scalePipeline(t, ds.DB, workers, master, masterV)
				if _, err := warm.Clean(); err != nil {
					t.Fatal(err)
				}
				moved := events.Tuples[321]
				if moved.Values[1].IsNull() {
					t.Fatal("fixture: the moved tuple must carry a manufacturer")
				}
				later := tc.move(t, warm, deltaOp{tid: moved.TID, attr: "sku", v: S("K-moved")})
				probe := deltaOp{eid: "probe", values: []Value{S("K-moved"), Null(TString), S("R1"), S("C1")}}
				d := warm.NewDelta()
				probe.apply(t, d)
				runs := []*Delta{d}
				if later != nil {
					runs = append(runs, later)
				}
				for k, dw := range runs {
					cold := scalePipeline(t, warm.DB().Clone(), workers, master, masterV)
					dc := cold.NewDelta()
					for rel, tids := range dw.dirty {
						for tid := range tids {
							dc.mark(rel, tid)
						}
					}
					wrep, weng, err := dw.cleanIncremental(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					crep, ceng, err := dc.cleanIncremental(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if g, w := correctionsString(wrep.Corrections), correctionsString(crep.Corrections); g != w {
						t.Fatalf("clean %d: warm corrections diverge from cold:\nwarm %s\ncold %s", k+1, g, w)
					}
					if g, w := weng.Truth().Snapshot(), ceng.Truth().Snapshot(); g != w {
						t.Fatalf("clean %d: warm fix set diverges from cold:\nwarm %s\ncold %s", k+1, g, w)
					}
					if n := wrep.Metrics.Counters["exec.columns.built"]; n != 0 {
						t.Errorf("clean %d: warm executor built %d columns", k+1, n)
					}
				}
				got := events.Get(events.NextTID() - 1).Values[1]
				if want := moved.Values[1]; !got.Equal(want) {
					t.Errorf("probe mfg = %v, want %v from the moved tuple", got, want)
				}
			})
		}
	}
}
