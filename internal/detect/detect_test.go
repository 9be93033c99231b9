package detect

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// dirtyTransEnv builds a Trans relation with known injected errors: every
// 10th tuple has the wrong manufactory for its commodity.
func dirtyTransEnv(t *testing.T, n int) (*predicate.Env, *data.Relation, map[string]bool) {
	t.Helper()
	schema := must.Schema("Trans",
		data.Attribute{Name: "com", Type: data.TString},
		data.Attribute{Name: "mfg", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	gold := map[string]bool{}
	for i := 0; i < n; i++ {
		com := fmt.Sprintf("line %d", i%8)
		mfg := fmt.Sprintf("maker %d", i%8)
		if i%10 == 3 {
			mfg = "WRONG"
		}
		tp := rel.Insert(fmt.Sprintf("e%d", i), data.S(com), data.S(mfg))
		if i%10 == 3 {
			gold[data.CellRef{Rel: "Trans", TID: tp.TID, Attr: "mfg"}.String()] = true
		}
	}
	db := data.NewDatabase()
	db.Add(rel)
	return predicate.NewEnv(db), rel, gold
}

func crRule(t *testing.T, env *predicate.Env) *ree.Rule {
	t.Helper()
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	r.ID = "phi2"
	return r
}

func TestDetectFindsInjectedErrors(t *testing.T) {
	env, _, gold := dirtyTransEnv(t, 100)
	d := New(env, []*ree.Rule{crRule(t, env)}, DefaultOptions())
	errs, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) == 0 {
		t.Fatal("no errors detected")
	}
	// Every gold cell must be implicated by some detection.
	found := map[string]bool{}
	for _, e := range errs {
		for _, c := range e.Cells {
			found[c.String()] = true
		}
	}
	for g := range gold {
		if !found[g] {
			t.Errorf("missed injected error %s", g)
		}
	}
}

// overlappingRules returns the CR rule under two IDs plus a constant rule
// that flags, as one-cell errors, cells the CR rule's culprit attribution
// also blames: every error has competing RuleIDs.
func overlappingRules(t *testing.T, env *predicate.Env) []*ree.Rule {
	t.Helper()
	a, b := crRule(t, env), crRule(t, env)
	a.ID, b.ID = "phi2", "phi1"
	c := must.Rule("Trans(t) ^ t.com = 'line 3' -> t.mfg = 'maker 3'", env.DB)
	c.ID = "phi3"
	return []*ree.Rule{a, b, c}
}

func TestDetectDeterministicAcrossWorkerCounts(t *testing.T) {
	keysFor := func(workers int) []string {
		env, _, _ := dirtyTransEnv(t, 80)
		o := DefaultOptions()
		o.Workers = workers
		d := New(env, overlappingRules(t, env), o)
		errs, err := d.Detect()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(errs))
		for i, e := range errs {
			out[i] = e.Key() + " " + e.RuleID
		}
		return out
	}
	a := keysFor(1)
	for _, workers := range []int{4, 9, 4, 9} {
		b := keysFor(workers)
		if len(a) != len(b) {
			t.Fatalf("worker count %d changed result size: %d vs %d", workers, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: result %d is %q, want %q", workers, i, b[i], a[i])
			}
		}
	}
}

// TestDetectCulpritsNotDuplicated checks that a culprit the rules also
// flag as a one-cell error is reported once, under the smallest RuleID.
func TestDetectCulpritsNotDuplicated(t *testing.T) {
	env, _, gold := dirtyTransEnv(t, 80)
	d := New(env, overlappingRules(t, env), DefaultOptions())
	errs, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range errs {
		k := e.Key()
		if seen[k] {
			t.Errorf("error %s reported twice", k)
		}
		seen[k] = true
		if len(e.Cells) == 1 && gold[e.Cells[0].String()] && e.RuleID != "phi1" {
			t.Errorf("%s: RuleID %s, want the smallest, phi1", k, e.RuleID)
		}
	}
	// phi3 (one-cell) and the CR rules' attribution both blame the
	// 'line 3' WRONG cells: the overlap must exist for the test to bite.
	overlap := 0
	for g := range gold {
		if seen["cell:"+g+";"] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("no gold cell among the reported culprits")
	}
}

func TestDetectIncrementalOnlyTouchesDirty(t *testing.T) {
	env, rel, _ := dirtyTransEnv(t, 60)
	d := New(env, []*ree.Rule{crRule(t, env)}, DefaultOptions())
	full, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	// Insert one fresh erroneous tuple and detect incrementally.
	nt := rel.Insert("eNew", data.S("line 0"), data.S("ALSO WRONG"))
	dirty := map[string]map[int]bool{"Trans": {nt.TID: true}}
	inc, err := d.DetectIncremental(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) == 0 {
		t.Fatal("incremental detection missed the new error")
	}
	if len(inc) >= len(full) {
		t.Errorf("incremental (%d) should be far smaller than batch (%d)", len(inc), len(full))
	}
	// Every incremental error involves the dirty tuple.
	for _, e := range inc {
		touches := false
		for _, c := range e.Cells {
			if c.TID == nt.TID {
				touches = true
			}
		}
		if !touches {
			t.Errorf("incremental error does not touch dirty tuple: %+v", e)
		}
	}
}

func TestDetectERRule(t *testing.T) {
	schema := must.Schema("Person",
		data.Attribute{Name: "LN", Type: data.TString},
		data.Attribute{Name: "home", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	rel.Insert("p1", data.S("Smith"), data.S("12 Beijing Road"))
	rel.Insert("p2", data.S("Smith"), data.S("12 Beijing Road"))
	rel.Insert("p3", data.S("Jones"), data.S("elsewhere"))
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	r := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.home = s.home -> t.eid = s.eid", db)
	r.ID = "er"
	d := New(env, []*ree.Rule{r}, DefaultOptions())
	errs, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 {
		t.Fatalf("want exactly the (p1,p2) duplicate, got %d: %+v", len(errs), errs)
	}
	if errs[0].DupEIDs != [2]string{"p1", "p2"} {
		t.Errorf("dup pair=%v", errs[0].DupEIDs)
	}
	if errs[0].Task != ree.TaskER {
		t.Error("task must be ER")
	}
}

func TestErrorKeyDedup(t *testing.T) {
	a := &Error{RuleID: "r1", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 1, Attr: "x"}, {Rel: "R", TID: 2, Attr: "x"}}}
	b := &Error{RuleID: "r2", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 2, Attr: "x"}, {Rel: "R", TID: 1, Attr: "x"}}}
	if a.Key() != b.Key() {
		t.Error("cell order and rule id must not affect the key")
	}
	e1 := &Error{Task: ree.TaskER, DupEIDs: [2]string{"a", "b"}}
	e2 := &Error{Task: ree.TaskER, DupEIDs: [2]string{"a", "c"}}
	if e1.Key() == e2.Key() {
		t.Error("different pairs must differ")
	}
}

func TestDetectInvalidRule(t *testing.T) {
	env, _, _ := dirtyTransEnv(t, 10)
	bad := must.Rule("Ghost(t) -> t.a = 1", nil)
	d := New(env, []*ree.Rule{bad}, DefaultOptions())
	if _, err := d.Detect(); err == nil {
		t.Error("invalid rule must surface an error")
	}
}

func TestDetectSimulatedMatchesBatch(t *testing.T) {
	env, _, _ := dirtyTransEnv(t, 60)
	o := DefaultOptions()
	o.Workers = 8
	d := New(env, []*ree.Rule{crRule(t, env)}, o)
	batch, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	sim, makespan, err := d.DetectSimulated()
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Error("simulated makespan must be positive")
	}
	if len(sim) != len(batch) {
		t.Fatalf("simulated run found %d errors, batch %d", len(sim), len(batch))
	}
	for i := range sim {
		if sim[i].Key() != batch[i].Key() {
			t.Fatalf("result %d differs between modes", i)
		}
	}
	// More workers shrink (or hold) the simulated makespan.
	o2 := DefaultOptions()
	o2.Workers = 1
	d1 := New(env, []*ree.Rule{crRule(t, env)}, o2)
	_, m1, err := d1.DetectSimulated()
	if err != nil {
		t.Fatal(err)
	}
	// Timing noise allowed, but 8 workers should not cost 3x one worker.
	if makespan > 3*m1 {
		t.Errorf("8-worker makespan %v vs 1-worker %v", makespan, m1)
	}
}

func TestAttributeCulpritsNoFreq(t *testing.T) {
	// The no-tie-break variant still covers every violation.
	errs := []*Error{
		{RuleID: "r", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 1, Attr: "a"}, {Rel: "R", TID: 2, Attr: "a"}}},
		{RuleID: "r", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 1, Attr: "a"}, {Rel: "R", TID: 3, Attr: "a"}}},
		{RuleID: "r", Task: ree.TaskER, DupEIDs: [2]string{"x", "y"}},
	}
	out := AttributeCulprits(errs)
	// TID 1 covers both edges: one culprit + the ER error pass through.
	if len(out) != 2 {
		t.Fatalf("out=%d: %+v", len(out), out)
	}
	foundCell, foundDup := false, false
	for _, e := range out {
		if e.Task == ree.TaskER {
			foundDup = true
		}
		if len(e.Cells) == 1 && e.Cells[0].TID == 1 {
			foundCell = true
		}
	}
	if !foundCell || !foundDup {
		t.Errorf("culprits wrong: %+v", out)
	}
}

func TestDetectSingleVariableRule(t *testing.T) {
	env, rel, _ := dirtyTransEnv(t, 30)
	rel.Insert("odd", data.S("line 0"), data.Null(data.TString))
	r := must.Rule("Trans(t) ^ !null(t.com) -> t.mfg = 'maker 0'", env.DB)
	r.ID = "single"
	d := New(env, []*ree.Rule{r}, DefaultOptions())
	errs, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) == 0 {
		t.Error("single-variable rule must detect")
	}
	for _, e := range errs {
		if len(e.Cells) != 1 {
			t.Errorf("single-var violations implicate one cell: %+v", e)
		}
	}
}

// attributeCulpritsOracle is the original quadratic greedy cover: every
// step recounts the degrees of all uncovered edges and scans every cell in
// key order. It differs from the original only in taking each culprit's
// RuleID from the smallest incident one rather than the first in input
// order. Output is unsorted and may repeat a pass-through error's Key.
func attributeCulpritsOracle(errs []*Error, freq func(data.CellRef) float64) []*Error {
	var out []*Error
	type edge struct{ a, b string }
	var edges []edge
	meta := map[string]data.CellRef{}
	byCellErr := map[string]*Error{}
	for _, e := range errs {
		if e.Task != ree.TaskER && len(e.Cells) == 2 {
			a, b := e.Cells[0], e.Cells[1]
			edges = append(edges, edge{a.String(), b.String()})
			meta[a.String()] = a
			meta[b.String()] = b
			for _, k := range []string{a.String(), b.String()} {
				if src := byCellErr[k]; src == nil || e.RuleID < src.RuleID {
					byCellErr[k] = e
				}
			}
			continue
		}
		out = append(out, e)
	}
	covered := make([]bool, len(edges))
	remaining := len(edges)
	// Pre-pass: null cells (score < 0) are culprits outright.
	if freq != nil {
		flagged := map[string]bool{}
		for _, ed := range edges {
			for _, cellKey := range []string{ed.a, ed.b} {
				if !flagged[cellKey] && freq(meta[cellKey]) < 0 {
					flagged[cellKey] = true
				}
			}
		}
		for cellKey := range flagged {
			for i, ed := range edges {
				if !covered[i] && (ed.a == cellKey || ed.b == cellKey) {
					covered[i] = true
					remaining--
				}
			}
			src := byCellErr[cellKey]
			out = append(out, &Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{meta[cellKey]}})
		}
	}
	for remaining > 0 {
		best, bestDeg := "", 0
		bestFreq := 0.0
		deg := map[string]int{}
		for i, ed := range edges {
			if covered[i] {
				continue
			}
			deg[ed.a]++
			deg[ed.b]++
		}
		keys := make([]string, 0, len(deg))
		for k := range deg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f := 0.0
			if freq != nil {
				f = freq(meta[k])
			}
			if deg[k] > bestDeg || (deg[k] == bestDeg && freq != nil && f < bestFreq) {
				best, bestDeg, bestFreq = k, deg[k], f
			}
		}
		if best == "" {
			break
		}
		for i, ed := range edges {
			if !covered[i] && (ed.a == best || ed.b == best) {
				covered[i] = true
				remaining--
			}
		}
		src := byCellErr[best]
		out = append(out, &Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{meta[best]}})
	}
	return out
}

// canonicalErrors lists errs as "key rule task" lines sorted by (Key,
// RuleID), keeping the first line per Key.
func canonicalErrors(errs []*Error) []string {
	type kr struct{ key, rule, task string }
	all := make([]kr, len(errs))
	for i, e := range errs {
		all[i] = kr{e.Key(), e.RuleID, e.Task.String()}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].rule < all[j].rule
	})
	var out []string
	for i, x := range all {
		if i > 0 && x.key == all[i-1].key {
			continue
		}
		out = append(out, x.key+" "+x.rule+" "+x.task)
	}
	return out
}

// randomViolations draws a violation set over a small cell pool, so degree
// and score ties are common: two-cell errors (self-loops, reversed and
// repeated pairs under different rules), one-cell errors on graph cells,
// ER pairs, and per-cell scores with nulls (score < 0).
func randomViolations(rng *rand.Rand) ([]*Error, map[data.CellRef]float64) {
	// TIDs straddle 9/10 so key order is not numeric order.
	cells := make([]data.CellRef, 2+rng.Intn(14))
	for i := range cells {
		cells[i] = data.CellRef{Rel: "R", TID: 5 + rng.Intn(8), Attr: []string{"a", "b"}[rng.Intn(2)]}
	}
	rules := []struct {
		id   string
		task ree.Task
	}{{"r1", ree.TaskCR}, {"r10", ree.TaskMI}, {"r2", ree.TaskCR}}
	scores := map[data.CellRef]float64{}
	for _, c := range cells {
		scores[c] = []float64{-1, 0, 1, 1, 2.5, 3}[rng.Intn(6)]
	}
	var errs []*Error
	for n := rng.Intn(25); n > 0; n-- {
		r := rules[rng.Intn(len(rules))]
		e := &Error{RuleID: r.id, Task: r.task}
		switch k := rng.Intn(10); {
		case k < 7:
			e.Cells = []data.CellRef{cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]}
		case k < 9:
			e.Cells = []data.CellRef{cells[rng.Intn(len(cells))]}
		default:
			e.Task = ree.TaskER
			e.DupEIDs = [2]string{"e" + strconv.Itoa(rng.Intn(3)), "e" + strconv.Itoa(3+rng.Intn(3))}
		}
		errs = append(errs, e)
	}
	return errs, scores
}

// TestAttributeCulpritsMatchesOracle property-tests the heap-based cover
// against the quadratic oracle on random violation graphs, with and
// without scores. Inputs are deduplicated by Key (smallest RuleID) before
// the oracle sees them, as AttributeCulpritsFreq documents.
func TestAttributeCulpritsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 3000; g++ {
		errs, scores := randomViolations(rng)
		var freq func(data.CellRef) float64
		if g%4 != 0 {
			freq = func(c data.CellRef) float64 { return scores[c] }
		}
		byKey := map[string]*Error{}
		for _, e := range errs {
			keepMinRule(byKey, e.Key(), e)
		}
		var dedup []*Error
		for _, k := range sortedKeys(byKey) {
			dedup = append(dedup, byKey[k])
		}
		want := canonicalErrors(attributeCulpritsOracle(dedup, freq))
		// Shuffled input must not matter.
		rng.Shuffle(len(errs), func(i, j int) { errs[i], errs[j] = errs[j], errs[i] })
		gotErrs := AttributeCulpritsFreq(errs, freq)
		got := make([]string, len(gotErrs))
		for i, e := range gotErrs {
			got[i] = e.Key() + " " + e.RuleID + " " + e.Task.String()
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("graph %d (freq=%v):\ninput %s\ngot\n%s\nwant\n%s", g, freq != nil,
				canonicalErrors(errs), strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func sortedKeys(m map[string]*Error) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// BenchmarkAttributeCulprits covers a synthetic violation graph of about
// 20k edges scored by CulpritScoreFn: 1000 groups of 12 tuples sharing a
// key, each with two distinct wrong values (one of them sometimes null)
// conflicting with the ten clean members and with each other.
func BenchmarkAttributeCulprits(b *testing.B) {
	schema := must.Schema("R",
		data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "v", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	var errs []*Error
	const groups, size = 1000, 12
	for g := 0; g < groups; g++ {
		tids := make([]int, size)
		for i := range tids {
			v := data.S(fmt.Sprintf("value %d", g%50))
			switch {
			case i == 0 && g%10 == 0:
				v = data.Null(data.TString)
			case i == 0:
				v = data.S(fmt.Sprintf("valeu %d", g%50))
			case i == 1:
				v = data.S(fmt.Sprintf("vlaue %d", g))
			}
			tids[i] = rel.Insert(fmt.Sprintf("e%d-%d", g, i), data.S(fmt.Sprintf("key %d", g)), v).TID
		}
		for i := 0; i < 2; i++ {
			for j := i + 1; j < size; j++ {
				errs = append(errs, &Error{RuleID: "r1", Task: ree.TaskCR, Cells: []data.CellRef{
					{Rel: "R", TID: tids[i], Attr: "v"}, {Rel: "R", TID: tids[j], Attr: "v"}}})
			}
		}
	}
	db := data.NewDatabase()
	db.Add(rel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attributeSink = AttributeCulpritsFreq(errs, CulpritScoreFn(db))
	}
	b.ReportMetric(float64(len(errs)), "edges")
}

// attributeSink keeps BenchmarkAttributeCulprits' result live.
var attributeSink []*Error
