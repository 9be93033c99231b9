// Package detect implements Rock's error-detection module (paper §3 and
// §5.3): given a set Σ of REE++s and a dataset D, it catches the errors in
// D as violations of the rules. For data-partitioned parallelism it
// extends the HyperCube partitioning of [41]: the data is divided into
// virtual blocks and each rule gets one work unit per block combination,
// distributed over the simulated cluster with consistent hashing and work
// stealing. A batch mode scans all of D; an incremental mode restricts to
// valuations touching changed tuples (ΔD).
package detect

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/exec"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// Error is one detected error: a rule violation with the cells (or the
// duplicate pair) it implicates.
type Error struct {
	RuleID string
	Task   ree.Task
	// Cells are the attribute cells the violation implicates (CR/TD/MI).
	Cells []data.CellRef
	// DupEIDs is the unidentified duplicate pair (ER), lexicographically
	// ordered.
	DupEIDs [2]string
}

// Key returns a deduplication key covering the implicated evidence (not
// the rule), so the same underlying error found by two rules counts once.
func (e *Error) Key() string {
	if e.Task == ree.TaskER {
		return "dup:" + e.DupEIDs[0] + "|" + e.DupEIDs[1]
	}
	ks := make([]string, len(e.Cells))
	n := len("cell:")
	for i, c := range e.Cells {
		ks[i] = c.String()
		n += len(ks[i]) + 1
	}
	sort.Strings(ks)
	var b strings.Builder
	b.Grow(n)
	b.WriteString("cell:")
	for _, k := range ks {
		b.WriteString(k)
		b.WriteByte(';')
	}
	return b.String()
}

// keepMinRule records e under its evidence key k unless an error with a
// smaller-or-equal RuleID already holds it. Among rules finding the same
// evidence the smallest RuleID wins, so the kept error does not depend on
// the order in which concurrent work units finish.
func keepMinRule(byKey map[string]*Error, k string, e *Error) {
	if prev, ok := byKey[k]; !ok || e.RuleID < prev.RuleID {
		byKey[k] = e
	}
}

// Options tunes a detection run.
type Options struct {
	// Workers is the simulated cluster size n (paper Figure 4(h)).
	Workers int
	// Blocks is the HyperCube block count per dimension; 0 picks
	// max(Workers, 4).
	Blocks int
	// UseBlocking enables LSH blocking for ML predicates.
	UseBlocking bool
	// Steal enables work stealing between workers.
	Steal bool
	// Pred, when set, is a predication layer shared with later pipeline
	// phases: detection's ML calls fill its content-keyed prediction
	// cache, so the chase serves the same (model, pair) scores as hits
	// instead of recomputing them (paper §5.4, "ML predication is
	// precomputed"). The layer's embedding store is NOT used here —
	// embeddings are keyed by tuple identity and detection reads raw
	// values while the chase reads through accumulated fixes.
	Pred *ml.Predication
	// Obs receives the detection phase's metrics and events under the
	// "detect.*" prefix (units, wall clock, per-node counts, steals,
	// blocker cache hits). Nil records nothing.
	Obs *obs.Registry
	// MaxRetries / RetryBackoff bound the retry-with-reassignment policy
	// for panicking work units (see cluster.Options).
	MaxRetries   int
	RetryBackoff time.Duration
	// Faults, when non-nil, injects failures into the detection drain
	// (tests and the fault experiments only).
	Faults *cluster.FaultInjector
	// Span, when non-nil, parents the detection phase span (rock threads
	// its root "clean" span here). Observed only while the registry has
	// spans enabled; tracing never changes detection results.
	Span *obs.Span
}

// DefaultOptions is Rock's shipped configuration.
func DefaultOptions() Options {
	return Options{Workers: 4, UseBlocking: true, Steal: true}
}

// Detector detects violations of a rule set over a database.
type Detector struct {
	env   *predicate.Env
	rules []*ree.Rule
	opts  Options
	// ex is shared by every work unit of every rule (exec.Executor is safe
	// for concurrent use), so LSH blocker indexes built for one rule's
	// partition are reused by every other rule blocking on the same
	// (relation, attrs, partition).
	ex *exec.Executor
}

// New creates a detector.
func New(env *predicate.Env, rules []*ree.Rule, opts Options) *Detector {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Blocks <= 0 {
		opts.Blocks = opts.Workers
		if opts.Blocks < 4 {
			opts.Blocks = 4
		}
	}
	d := &Detector{env: env, rules: rules, opts: opts, ex: exec.New(env)}
	d.ex.SetObs(opts.Obs)
	// Detection reads raw values (no ValueOf hook) and a Detector is
	// created per call over an immutable snapshot, so a per-detector
	// embedding store needs no invalidation: cross-relation ML probes and
	// cross-rule blocker rebuilds embed each tuple once instead of once
	// per rule per unit.
	d.ex.SetEmbedStore(ml.NewEmbedStore(0))
	if opts.Pred != nil {
		// Route registry models through the shared prediction cache so
		// scores computed during detection carry over to the chase.
		for _, name := range env.Models.Names() {
			if m, err := env.Models.Get(name); err == nil {
				env.Models.Register(opts.Pred.Wrap(ml.Unwrap(m)))
			}
		}
	}
	return d
}

// Detect runs batch detection over the whole database and returns the
// deduplicated errors.
func (d *Detector) Detect() ([]*Error, error) {
	errs, _, err := d.DetectCtx(context.Background())
	return errs, err
}

// DetectCtx is Detect under a cancellation context. On cancel/deadline it
// degrades gracefully: the errors found so far are returned with
// partial=true and a nil error.
func (d *Detector) DetectCtx(ctx context.Context) (errs []*Error, partial bool, err error) {
	return d.runCtx(ctx, nil)
}

// DetectIncremental runs incremental detection: only violations involving
// at least one dirty tuple are found (paper §3, "incrementally detects
// errors in response to updates"). dirty maps relation name to changed
// TIDs.
func (d *Detector) DetectIncremental(dirty map[string]map[int]bool) ([]*Error, error) {
	errs, _, err := d.runCtx(context.Background(), dirty)
	return errs, err
}

// DetectIncrementalCtx is DetectIncremental under a cancellation context,
// with the same graceful degradation as DetectCtx.
func (d *Detector) DetectIncrementalCtx(ctx context.Context, dirty map[string]map[int]bool) ([]*Error, bool, error) {
	return d.runCtx(ctx, dirty)
}

func (d *Detector) runCtx(ctx context.Context, dirty map[string]map[int]bool) ([]*Error, bool, error) {
	errs, _, partial, err := d.runMode(ctx, dirty, false)
	return errs, partial, err
}

// DetectSimulated runs batch detection measuring each work unit's cost
// serially, then returns the detected errors together with the simulated
// parallel makespan over the configured worker count (see
// cluster.SimulateMakespan — the substitution used on hosts without
// enough physical cores to express the paper's cluster sizes).
func (d *Detector) DetectSimulated() ([]*Error, time.Duration, error) {
	errs, makespan, _, err := d.runMode(context.Background(), nil, true)
	return errs, makespan, err
}

func (d *Detector) runMode(ctx context.Context, dirty map[string]map[int]bool, simulate bool) ([]*Error, time.Duration, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if dirty != nil {
		// Incremental detection runs after the caller mutated raw data:
		// re-intern the changed TIDs so the executor's id comparisons see
		// current values (fresh detectors build columns lazily anyway; this
		// matters for a detector reused across update batches).
		d.ex.RefreshTuples(dirty)
	}
	start := time.Now()
	cl := cluster.New(d.opts.Workers)
	cl.SetObs(d.opts.Obs, "detect")
	phaseName := "detect"
	if dirty != nil {
		phaseName = "detect.incremental"
	}
	phase := d.opts.Obs.StartSpan(phaseName, d.opts.Span)
	defer phase.End()
	var mu sync.Mutex
	byKey := make(map[string]*Error)
	var firstErr error

	blocks := d.partition()
	var all []*crystal.WorkUnit
	for _, r := range d.rules {
		units, err := d.unitsFor(r, blocks, dirty, phase, func(errs []*Error) {
			keys := make([]string, len(errs))
			for i, e := range errs {
				keys[i] = e.Key()
			}
			mu.Lock()
			defer mu.Unlock()
			for i, e := range errs {
				keepMinRule(byKey, keys[i], e)
			}
		}, &mu, &firstErr)
		if err != nil {
			return nil, 0, false, err
		}
		all = append(all, units...)
	}
	d.opts.Obs.Add("detect.units", uint64(len(all)))
	var makespan time.Duration
	partial := false
	if simulate {
		hist := d.opts.Obs.Histogram("detect.unit")
		sims := make([]cluster.SimUnit, 0, len(all))
		for _, u := range all {
			if ctx.Err() != nil {
				partial = true
				d.opts.Obs.Inc("detect.cancelled")
				break
			}
			node := cl.Ring.Owner(u.Part)
			unitStart := time.Now()
			u.Exec(node)
			cost := time.Since(unitStart)
			sims = append(sims, cluster.SimUnit{Node: node, Cost: cost})
			hist.Observe(cost)
			d.opts.Obs.Inc("detect.node." + node + ".units")
		}
		makespan = cluster.SimulateMakespan(sims, cl.Nodes(), d.opts.Steal)
		d.opts.Obs.Add("detect.sim_makespan_ns", uint64(makespan))
	} else {
		for _, u := range all {
			cl.Submit(u)
		}
		st := cl.DrainWithStats(ctx, cluster.Options{
			Steal:        d.opts.Steal,
			MaxRetries:   d.opts.MaxRetries,
			RetryBackoff: d.opts.RetryBackoff,
			Faults:       d.opts.Faults,
		})
		// A cancelled drain (or permanently failed units) leaves detection
		// incomplete but sound: every error found so far stands.
		partial = st.Cancelled || len(st.Failed) > 0
	}
	if firstErr != nil {
		d.opts.Obs.Inc("detect.errors.run")
		return nil, 0, partial, firstErr
	}
	out := attribute(byKey, d.culpritScore())
	phase.SetN(int64(len(out)))
	d.opts.Obs.Add("detect.errors.found", uint64(len(out)))
	d.opts.Obs.Add("detect.wall_ns", uint64(time.Since(start)))
	if d.opts.Pred != nil {
		d.opts.Pred.PublishTo(d.opts.Obs)
	}
	return out, makespan, partial, nil
}

// culpritScore returns the tie-break signal for culprit attribution: the
// cell's column value frequency plus a character-bigram plausibility term
// in [0, 1). Typos and corrupted numbers are rare in their columns and
// contain bigrams the column has never seen elsewhere, so lower scores
// mark the likelier culprit.
func (d *Detector) culpritScore() func(data.CellRef) float64 {
	return CulpritScoreFn(d.env.DB)
}

// CulpritScoreFn builds the culprit tie-break score over one database
// (shared with the SQL-engine baselines, which run the same rules). Column
// statistics are built on a column's first lookup; the returned function
// is not safe for concurrent use.
func CulpritScoreFn(db *data.Database) func(data.CellRef) float64 {
	type colKey struct{ rel, attr string }
	type colStats struct {
		freq    map[string]int
		bigrams map[string]int
		total   int
		// maxBigram is the largest count in bigrams.
		maxBigram int
	}
	cache := map[colKey]*colStats{}
	stats := func(c data.CellRef) *colStats {
		k := colKey{c.Rel, c.Attr}
		st := cache[k]
		if st != nil {
			return st
		}
		rel := db.Rel(c.Rel)
		if rel == nil {
			return &colStats{}
		}
		ai := rel.Schema.Index(c.Attr)
		if ai < 0 {
			return &colStats{}
		}
		st = &colStats{freq: map[string]int{}, bigrams: map[string]int{}}
		for _, t := range rel.Tuples {
			v := t.Values[ai]
			st.freq[v.Key()]++
			s := v.String()
			for i := 0; i+2 <= len(s); i++ {
				st.bigrams[s[i:i+2]]++
				st.total++
			}
		}
		for _, cnt := range st.bigrams {
			st.maxBigram = max(st.maxBigram, cnt)
		}
		cache[k] = st
		return st
	}
	return func(c data.CellRef) float64 {
		rel := db.Rel(c.Rel)
		if rel == nil {
			return 0
		}
		v, ok := rel.Value(c.TID, c.Attr)
		if !ok {
			return 0
		}
		if v.IsNull() {
			// A null participating in a violation is the error by
			// definition (the MI case): absolute culprit priority.
			return -1
		}
		st := stats(c)
		score := float64(st.freq[v.Key()])
		// Bigram plausibility in [0, 1): the mean relative frequency of the
		// value's bigrams within its column.
		s := v.String()
		if st.total > 0 && len(s) >= 2 {
			sum, n := 0.0, 0.0
			for i := 0; i+2 <= len(s); i++ {
				sum += float64(st.bigrams[s[i:i+2]]) / float64(st.maxBigram)
				n++
			}
			if n > 0 {
				score += 0.99 * (sum / n)
			}
		}
		return score
	}
}

// AttributeCulprits refines two-cell violations into single-cell errors by
// greedy vertex cover over the violation graph (see AttributeCulpritsFreq,
// which it calls without a frequency tie-break).
func AttributeCulprits(errs []*Error) []*Error {
	return AttributeCulpritsFreq(errs, nil)
}

// AttributeCulpritsFreq refines two-cell violations into single-cell errors
// by greedy vertex cover over the violation graph: a truly erroneous cell
// conflicts with every clean witness in its group, so it covers many
// violations, while each clean cell conflicts only with the few erroneous
// ones. Repeatedly flagging the highest-degree cell until all two-cell
// violations are covered pins the blame precisely (the standard
// hypergraph-cover heuristic for dependency violations). One-cell and ER
// errors pass through unchanged.
//
// When freq is supplied, every cell it scores below zero (a null) is a
// culprit outright. The greedy step then picks by degree (uncovered
// incident violations; a self-loop counts twice), breaking ties by the
// lower freq score (the rarer, less plausible value) and then by the
// smaller CellRef.String(). Without freq, ties go straight to the string.
// A culprit carries the smallest RuleID (and that error's Task) among the
// violations touching its cell.
//
// Errors sharing a Key collapse to the one with the smallest RuleID, both
// on input and after attribution (a culprit the rules also flagged as a
// one-cell error is reported once). The result is sorted by Key, so it
// does not depend on the order of errs.
//
// The cover costs O((V+E) log V) for V cells and E two-cell violations:
// each cell is scored once, degrees are updated as violations are covered,
// and each pick comes from a lazy-deletion max-heap.
func AttributeCulpritsFreq(errs []*Error, freq func(data.CellRef) float64) []*Error {
	byKey := make(map[string]*Error, len(errs))
	for _, e := range errs {
		keepMinRule(byKey, e.Key(), e)
	}
	return attribute(byKey, freq)
}

// attribute is AttributeCulpritsFreq over errors already deduplicated by
// Key (the map key).
func attribute(byKey map[string]*Error, freq func(data.CellRef) float64) []*Error {
	g := culpritGraph{ids: make(map[data.CellRef]int32)}
	out := make([]keyedError, 0, len(byKey))
	for k, e := range byKey {
		if e.Task != ree.TaskER && len(e.Cells) == 2 {
			g.addEdge(e)
			continue
		}
		out = append(out, keyedError{k, e})
	}
	for _, c := range g.cover(freq) {
		out = append(out, keyedError{c.Key(), c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].RuleID < out[j].RuleID
	})
	res := make([]*Error, 0, len(out))
	for i, ke := range out {
		if i > 0 && ke.key == out[i-1].key {
			continue
		}
		res = append(res, ke.Error)
	}
	return res
}

// keyedError pairs an error with its Key, computed once.
type keyedError struct {
	key string
	*Error
}

// culpritGraph is the violation graph of attribution: one vertex per cell,
// one edge per two-cell violation.
type culpritGraph struct {
	ids   map[data.CellRef]int32
	cells []data.CellRef
	// src is, per vertex, the incident violation with the smallest RuleID.
	src  []*Error
	ends [][2]int32
}

func (g *culpritGraph) vertex(c data.CellRef, e *Error) int32 {
	v, ok := g.ids[c]
	if !ok {
		v = int32(len(g.cells))
		g.ids[c] = v
		g.cells = append(g.cells, c)
		g.src = append(g.src, e)
	} else if e.RuleID < g.src[v].RuleID {
		g.src[v] = e
	}
	return v
}

func (g *culpritGraph) addEdge(e *Error) {
	g.ends = append(g.ends, [2]int32{g.vertex(e.Cells[0], e), g.vertex(e.Cells[1], e)})
}

// cover runs the greedy vertex cover and returns one single-cell error per
// culprit.
func (g *culpritGraph) cover(freq func(data.CellRef) float64) []*Error {
	n := len(g.cells)
	// Incidence lists in one array: vertex v's edges are
	// inc[off[v]:off[v+1]], a self-loop listed twice. deg[v] counts the
	// uncovered ones.
	deg := make([]int32, n)
	for _, e := range g.ends {
		deg[e[0]]++
		deg[e[1]]++
	}
	off := make([]int32, n+1)
	for v, d := range deg {
		off[v+1] = off[v] + d
	}
	inc := make([]int32, 2*len(g.ends))
	fill := append([]int32(nil), off[:n]...)
	for i, e := range g.ends {
		for _, v := range e {
			inc[fill[v]] = int32(i)
			fill[v]++
		}
	}
	h := culpritHeap{keys: make([]string, n), score: make([]float64, n)}
	for v, c := range g.cells {
		h.keys[v] = c.String()
		if freq != nil {
			h.score[v] = freq(c)
		}
	}
	covered := make([]bool, len(g.ends))
	var out []*Error
	pick := func(v int32) {
		for _, ei := range inc[off[v]:off[v+1]] {
			if covered[ei] {
				continue
			}
			covered[ei] = true
			o := g.ends[ei][0]
			if o == v {
				o = g.ends[ei][1]
			}
			deg[o]--
		}
		deg[v] = 0
		src := g.src[v]
		out = append(out, &Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{g.cells[v]}})
	}
	if freq != nil {
		var nulls []int32
		for v := range g.cells {
			if h.score[v] < 0 {
				nulls = append(nulls, int32(v))
			}
		}
		sort.Slice(nulls, func(i, j int) bool { return h.keys[nulls[i]] < h.keys[nulls[j]] })
		for _, v := range nulls {
			pick(v)
		}
	}
	for v := range g.cells {
		if deg[v] > 0 {
			h.items = append(h.items, heapItem{int32(v), deg[v]})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		it := heap.Pop(&h).(heapItem)
		switch cur := deg[it.v]; {
		case cur == 0:
		case cur != it.deg:
			// Stale: degrees only fall, so the entry surfaced early;
			// requeue it at its current degree.
			heap.Push(&h, heapItem{it.v, cur})
		default:
			pick(it.v)
		}
	}
	return out
}

type heapItem struct{ v, deg int32 }

// culpritHeap orders vertices by (degree desc, score asc, key asc), using
// the degree recorded in each item.
type culpritHeap struct {
	items []heapItem
	keys  []string
	score []float64
}

func (h *culpritHeap) Len() int { return len(h.items) }
func (h *culpritHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	if sa, sb := h.score[a.v], h.score[b.v]; sa != sb {
		return sa < sb
	}
	return h.keys[a.v] < h.keys[b.v]
}
func (h *culpritHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *culpritHeap) Push(x any)    { h.items = append(h.items, x.(heapItem)) }
func (h *culpritHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

// partition divides each relation into virtual blocks by TID hash.
func (d *Detector) partition() map[string][][]*data.Tuple {
	blocks := make(map[string][][]*data.Tuple)
	for name, rel := range d.env.DB.Relations {
		bs := make([][]*data.Tuple, d.opts.Blocks)
		for _, t := range rel.Tuples {
			i := t.TID % d.opts.Blocks
			bs[i] = append(bs[i], t)
		}
		blocks[name] = bs
	}
	return blocks
}

// unitsFor builds the HyperCube work units of rule r: one per block
// combination of its first two tuple variables (or per block for
// single-variable rules). Each unit runs the local executor on its
// partition and reports implicated errors through sink.
func (d *Detector) unitsFor(r *ree.Rule, blocks map[string][][]*data.Tuple,
	dirty map[string]map[int]bool, phase *obs.Span, sink func([]*Error), mu *sync.Mutex, firstErr *error) ([]*crystal.WorkUnit, error) {

	if err := r.Validate(d.env.DB); err != nil {
		return nil, err
	}
	reg := d.opts.Obs
	mkRun := func(part string, restrictVar map[string][]*data.Tuple, estRows int) func(node string) {
		return func(node string) {
			var unitSpan *obs.Span
			if reg.SpansEnabled() {
				unitSpan = reg.StartSpan("unit", phase)
				unitSpan.SetRule(r.ID)
				unitSpan.SetNode(node)
				unitSpan.SetDetail(part)
				defer unitSpan.End()
			}
			unitStart := time.Now()
			var local []*Error
			st, err := d.ex.Run(r, exec.Options{
				UseBlocking: d.opts.UseBlocking,
				Dirty:       dirty,
				RestrictVar: restrictVar,
				Span:        unitSpan,
			}, func(h *predicate.Valuation) bool {
				ok, evalErr := r.P0.Eval(d.env, h)
				if evalErr != nil {
					mu.Lock()
					if *firstErr == nil {
						*firstErr = evalErr
					}
					mu.Unlock()
					return false
				}
				if !ok {
					local = append(local, implicate(r, h))
				}
				return true
			})
			unitSpan.SetN(int64(st.Valuations))
			reg.Inc("detect.rule." + r.ID + ".units")
			reg.Add("detect.rule."+r.ID+".wall_ns", uint64(time.Since(unitStart)))
			if err != nil {
				reg.Inc("detect.rule." + r.ID + ".errors")
				mu.Lock()
				if *firstErr == nil {
					*firstErr = err
				}
				mu.Unlock()
				return
			}
			if len(local) > 0 {
				sink(local)
			}
		}
	}

	var units []*crystal.WorkUnit
	uid := 0
	switch len(r.Atoms) {
	case 0:
		return nil, fmt.Errorf("detect: rule %s has no tuple atoms", r.ID)
	case 1:
		a := r.Atoms[0]
		for i, blk := range blocks[a.Rel] {
			if len(blk) == 0 {
				continue
			}
			part := fmt.Sprintf("%s/b%d", a.Rel, i)
			units = append(units, &crystal.WorkUnit{
				ID:      uid,
				RuleID:  r.ID,
				Part:    part,
				EstCost: float64(len(blk)),
				RunOn:   mkRun(part, map[string][]*data.Tuple{a.Var: blk}, len(blk)),
			})
			uid++
		}
	default:
		a1, a2 := r.Atoms[0], r.Atoms[1]
		for i, b1 := range blocks[a1.Rel] {
			if len(b1) == 0 {
				continue
			}
			for j, b2 := range blocks[a2.Rel] {
				if len(b2) == 0 {
					continue
				}
				part := fmt.Sprintf("%s-%s/b%d-%d", a1.Rel, a2.Rel, i, j)
				units = append(units, &crystal.WorkUnit{
					ID:      uid,
					RuleID:  r.ID,
					Part:    part,
					EstCost: float64(len(b1) * len(b2)),
					RunOn: mkRun(part, map[string][]*data.Tuple{
						a1.Var: b1,
						a2.Var: b2,
					}, len(b1)*len(b2)),
				})
				uid++
			}
		}
	}
	return units, nil
}

// implicate derives the error evidence from a violation of r under h
// (which cells are wrong, or which pair is an uncaught duplicate).
func implicate(r *ree.Rule, h *predicate.Valuation) *Error {
	p := r.P0
	e := &Error{RuleID: r.ID, Task: r.TaskOf()}
	cell := func(varName, attr string) {
		b, ok := h.Tuples[varName]
		if !ok {
			return
		}
		e.Cells = append(e.Cells, data.CellRef{Rel: b.Rel, TID: b.Tuple.TID, Attr: attr})
	}
	switch p.Kind {
	case predicate.KEID:
		bt, bs := h.Tuples[p.T], h.Tuples[p.S]
		a, b := bt.Tuple.EID, bs.Tuple.EID
		if a > b {
			a, b = b, a
		}
		e.DupEIDs = [2]string{a, b}
	case predicate.KConst:
		cell(p.T, p.A)
	case predicate.KAttr:
		cell(p.T, p.A)
		cell(p.S, p.B)
	case predicate.KTemporal, predicate.KRank:
		cell(p.T, p.A)
		cell(p.S, p.A)
	case predicate.KVal, predicate.KML:
		cell(p.T, p.A)
	case predicate.KPredict, predicate.KCorr:
		cell(p.T, p.B)
	}
	return e
}
