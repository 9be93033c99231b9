package ml

import (
	"math"
	"sort"

	"github.com/rockclean/rock/internal/data"
)

// CorrelationModel is Mc of paper §2.3: given a partial tuple t[A̅] and a
// candidate value c for attribute B (or the current value t[B]), it returns
// the strength of the correlation between them in [0, 1]. The paper builds
// Mc from graph + language-model embeddings; this substitute estimates the
// same quantity from smoothed co-occurrence statistics (pointwise mutual
// information mapped through a sigmoid), which exercises the identical
// predicate contract Mc(t[A̅], t[B]=c) ≥ δ.
type CorrelationModel struct {
	ModelName string
	Schema    *data.Schema

	// ids numbers each trained attribute value (cellKey) densely;
	// valCount[id] counts its occurrences and pairCount[tallyKey(a, b)]
	// the co-occurrences of two values, a's attribute preceding b's.
	// Integer pair keys keep the model a fraction of the size of
	// string-keyed tallies: a high-cardinality attribute has a pair per
	// tuple and per other attribute.
	ids       map[string]int32
	valCount  []float64
	pairCount map[uint64]float64
	total     float64
}

// NewCorrelationModel creates an untrained model for the schema.
func NewCorrelationModel(name string, schema *data.Schema) *CorrelationModel {
	return &CorrelationModel{
		ModelName: name,
		Schema:    schema,
		ids:       make(map[string]int32),
		pairCount: make(map[uint64]float64),
	}
}

// Name identifies the model inside rule text, e.g. "M_c".
func (m *CorrelationModel) Name() string { return m.ModelName }

func cellKey(attrIdx int, v data.Value) string {
	return string(rune('A'+attrIdx)) + "\x1f" + v.Key()
}

func tallyKey(a, b int32) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

// id returns the dense id of a trained attribute value (-1 if untrained).
func (m *CorrelationModel) id(attrIdx int, v data.Value) int32 {
	if id, ok := m.ids[cellKey(attrIdx, v)]; ok {
		return id
	}
	return -1
}

// count returns how often the attribute value was trained.
func (m *CorrelationModel) count(id int32) float64 {
	if id < 0 {
		return 0
	}
	return m.valCount[id]
}

// intern returns the value's dense id, numbering it on first sight.
func (m *CorrelationModel) intern(attrIdx int, v data.Value) int32 {
	k := cellKey(attrIdx, v)
	id, ok := m.ids[k]
	if !ok {
		id = int32(len(m.valCount))
		m.ids[k] = id
		m.valCount = append(m.valCount, 0)
	}
	return id
}

// Train ingests tuples (typically the validated portion of the data plus
// accumulated ground truth) and tallies value co-occurrence.
func (m *CorrelationModel) Train(tuples []*data.Tuple) {
	var ids []int32
	for _, t := range tuples {
		m.total++
		ids = ids[:0]
		for i, v := range t.Values {
			id := int32(-1)
			if !v.IsNull() {
				id = m.intern(i, v)
				m.valCount[id]++
			}
			ids = append(ids, id)
		}
		for i, a := range ids {
			if a < 0 {
				continue
			}
			for _, b := range ids[i+1:] {
				if b >= 0 {
					m.pairCount[tallyKey(a, b)]++
				}
			}
		}
	}
}

// pairStrength returns the smoothed PMI-derived strength for one attribute
// pair, mapped to [0, 1].
func (m *CorrelationModel) pairStrength(ai int, av data.Value, bi int, bv data.Value) float64 {
	if m.total == 0 || av.IsNull() || bv.IsNull() {
		return 0
	}
	ka, kb := m.id(ai, av), m.id(bi, bv)
	ca, cb := m.count(ka), m.count(kb)
	if ca == 0 || cb == 0 {
		return 0
	}
	var joint float64
	if ai < bi {
		joint = m.pairCount[tallyKey(ka, kb)]
	} else {
		joint = m.pairCount[tallyKey(kb, ka)]
	}
	// A candidate value observed fewer than twice has no statistical
	// support: raw PMI would reward exactly such one-off co-occurrences
	// (a corrupted value trivially "co-occurs" with its own row), so the
	// model abstains instead.
	if cb < 2 {
		return 0
	}
	// Smoothed PMI: log P(a,b)/(P(a)P(b)); sigmoid-squashed. Conditional
	// support P(b|a) is blended in so deterministic associations score near 1.
	pmi := math.Log(((joint + 0.1) / m.total) / (((ca / m.total) * (cb / m.total)) + 1e-12))
	cond := joint / ca
	return clamp01(0.5*sigmoid(pmi) + 0.5*cond)
}

// Strength returns Mc(t[A̅], B=c): the average pair strength between each
// non-null anchor attribute value and the candidate value c for attribute
// bIdx. anchors is a set of attribute indices; pass nil for "all non-null
// attributes except bIdx".
func (m *CorrelationModel) Strength(t *data.Tuple, anchors []int, bIdx int, c data.Value) float64 {
	if c.IsNull() {
		return 0
	}
	if anchors == nil {
		for i, v := range t.Values {
			if i != bIdx && !v.IsNull() {
				anchors = append(anchors, i)
			}
		}
	}
	if len(anchors) == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, ai := range anchors {
		if ai == bIdx || ai >= len(t.Values) {
			continue
		}
		av := t.Values[ai]
		if av.IsNull() {
			continue
		}
		// Anchors whose value occurs once carry no statistical support —
		// a near-unique key "co-occurs" perfectly with whatever happens to
		// sit in its row, drowning the informative correlations.
		if m.count(m.id(ai, av)) < 2 {
			continue
		}
		sum += m.pairStrength(ai, av, bIdx, c)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// ValuePredictor is Md of paper §2.3: given a partial tuple t[A̅] it
// suggests a value for attribute B. The paper retrieves candidates from a
// knowledge graph and ranks them with reused Mc encoders; this substitute
// retrieves candidates from the trained co-occurrence table (plus any
// caller-provided candidates, e.g. KG extractions) and ranks them by Mc
// strength — the same retrieve-then-rank structure.
type ValuePredictor struct {
	ModelName string
	Corr      *CorrelationModel
	// Candidates caches the distinct observed values per attribute index.
	candidates map[int][]data.Value
}

// NewValuePredictor builds Md on top of a trained correlation model.
func NewValuePredictor(name string, corr *CorrelationModel, trained []*data.Tuple) *ValuePredictor {
	vp := &ValuePredictor{ModelName: name, Corr: corr, candidates: make(map[int][]data.Value)}
	seen := make(map[int]map[string]bool)
	for _, t := range trained {
		for i, v := range t.Values {
			if v.IsNull() {
				continue
			}
			s := seen[i]
			if s == nil {
				s = make(map[string]bool)
				seen[i] = s
			}
			if !s[v.Key()] {
				s[v.Key()] = true
				vp.candidates[i] = append(vp.candidates[i], v)
			}
		}
	}
	return vp
}

// Name identifies the model inside rule text, e.g. "M_d".
func (vp *ValuePredictor) Name() string { return vp.ModelName }

// Suggest returns the best value for attribute bIdx of t together with its
// strength; ok is false when no candidate clears zero strength. extra
// candidates (e.g. from KG extraction) compete with observed values.
func (vp *ValuePredictor) Suggest(t *data.Tuple, bIdx int, extra ...data.Value) (data.Value, float64, bool) {
	cands := append([]data.Value(nil), vp.candidates[bIdx]...)
	cands = append(cands, extra...)
	if len(cands) == 0 {
		return data.Value{}, 0, false
	}
	type scored struct {
		v data.Value
		s float64
	}
	best := scored{s: -1}
	// Deterministic tie-break: sort candidates by key first.
	sort.Slice(cands, func(i, j int) bool { return cands[i].Key() < cands[j].Key() })
	for _, c := range cands {
		s := vp.Corr.Strength(t, nil, bIdx, c)
		if s > best.s {
			best = scored{c, s}
		}
	}
	if best.s <= 0 {
		return data.Value{}, 0, false
	}
	return best.v, best.s, true
}
